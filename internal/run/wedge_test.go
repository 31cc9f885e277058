package run_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
)

// TestSustainedEquivocationWedge runs the three byz-equivocate cells of
// BENCH_alea.json that used to end in a deadline error: f nodes
// equivocating from t = 0 against a 12-epoch chain, seed 2.
//
// The two HB-SC cells are a liveness gate. Their wedge was in the
// decryption hand-off: the equivocator's per-fragment rewrites left RBC
// agreeing on a ciphertext whose header parses and whose body no longer
// matches its binding tag, which no honest node makes a decryption share
// of, so the epoch waited on a plaintext for ever. The ciphertext is now
// refused where it is decoded and the slot rejected, and both cells commit
// 12/12.
//
// The Dumbo-SC baseline cell is not a wedge but a deadline miss, and stays
// an expected one: the medium is 83 % busy from the first minute to the
// last under the blind retransmission timer — GCLag 12 keeps every epoch
// open, each re-broadcasting its whole intent set, one packet per intent,
// and the Byzantine candidate's CBCs never complete, so their intents never
// prune — and the cell commits 12/12 at ≈ 8 h 45 m against the 8 h
// deadline. Demand-driven retransmission (ROADMAP item 2) closes it; a
// longer deadline would only hide it.
func TestSustainedEquivocationWedge(t *testing.T) {
	cases := []struct {
		name    string
		kind    protocol.Kind
		batched bool
		commits bool
	}{
		{"HB-SC/batched", protocol.HoneyBadger, true, true},
		{"HB-SC/baseline", protocol.HoneyBadger, false, true},
		{"Dumbo-SC/baseline", protocol.DumboKind, false, false},
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
			rep, err := run.Run(spec)
			if !tc.commits {
				if err == nil {
					t.Fatal("cell committed inside the deadline: record it in ROADMAP item 2 and make it a liveness gate")
				}
				if !errors.Is(err, node.ErrDeadline) {
					t.Fatalf("expected the documented deadline miss, got a different failure: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("liveness lost under sustained equivocation: %v", err)
			}
			if rep.Chain.EpochsCommitted != 12 || rep.Rejected == 0 {
				t.Errorf("committed %d epochs with %d rejected contributions, want 12 and the equivocator's slots rejected",
					rep.Chain.EpochsCommitted, rep.Rejected)
			}
		})
	}
}
