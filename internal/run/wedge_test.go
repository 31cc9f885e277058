package run_test

import (
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
)

// TestSustainedEquivocationWedge pins ROADMAP item 2 as an in-tree
// repro: under a sustained equivocation adversary (f Byzantine nodes
// from t=0), the three BENCH_alea.json cells below wedge — every honest
// node stalls at the same epoch frontier until the run deadline fires —
// instead of committing all 12 epochs. Alea-SC survives the same plan
// (its VCBC certificates pin one payload per slot), so the wedge is
// likely in RBC's equivocation-repair path shared by the HB and Dumbo
// engines.
//
// The test is skipped: it documents a known open bug, not a regression
// gate. Whoever fixes item 2 should delete the Skip and flip the
// expectation — a fixed engine commits all 12 epochs and the run
// returns nil.
func TestSustainedEquivocationWedge(t *testing.T) {
	t.Skip("ROADMAP item 2: sustained-equivocation liveness wedge (known open bug; " +
		"remove this Skip when fixing it and expect the runs to succeed)")

	cases := []struct {
		name    string
		kind    protocol.Kind
		batched bool
	}{
		// The three FAILED byz-equivocate cells of BENCH_alea.json, seed 2.
		{"HB-SC/batched", protocol.HoneyBadger, true},
		{"HB-SC/baseline", protocol.HoneyBadger, false},
		{"Dumbo-SC/baseline", protocol.DumboKind, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := run.Defaults(tc.kind, protocol.CoinSig)
			spec.Batched = tc.batched
			spec.Seed = 2
			spec.Workload = run.Chain(12)
			spec.Workload.TxInterval = time.Second
			spec.Workload.GCLag = 12
			plan := scenario.Plan{}
			for i := 0; i < spec.F; i++ {
				plan = plan.Then(scenario.ByzAt(0, spec.N-1-i, byz.NameEquivocate))
			}
			spec.Scenario = plan
			_, err := run.Run(spec)
			if err == nil {
				t.Fatal("cell completed: the equivocation wedge is gone — " +
					"close ROADMAP item 2 and turn this into a liveness gate")
			}
			if !node.IsDeadline(err) {
				t.Fatalf("expected the documented deadline wedge, got a different failure: %v", err)
			}
		})
	}
}
