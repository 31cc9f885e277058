package run_test

import (
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
)

// TestSustainedEquivocationWedge runs the three byz-equivocate cells of
// BENCH_alea.json that used to end in a deadline error: f nodes
// equivocating from t = 0 against a 12-epoch chain, seed 2. All three are
// a liveness gate.
//
// The two HB-SC cells' wedge was in the decryption hand-off: the
// equivocator's per-fragment rewrites left RBC agreeing on a ciphertext
// whose header parses and whose body no longer matches its binding tag,
// which no honest node makes a decryption share of, so the epoch waited on
// a plaintext for ever. The ciphertext is now refused where it is decoded
// and the slot rejected.
//
// The Dumbo-SC baseline cell was never a wedge but a deadline miss: under
// the blind retransmission timer the medium was 83 % busy from the first
// minute to the last — a 12-epoch GC lag kept every epoch open, each re-broadcasting
// its whole intent set, one packet per intent — and the cell committed
// 12/12 at ≈ 8 h 45 m against the 8 h deadline. With demand-driven
// retransmission an epoch every peer has finished goes quiet, and the cell
// commits well inside the deadline.
func TestSustainedEquivocationWedge(t *testing.T) {
	cases := []struct {
		name    string
		kind    protocol.Kind
		batched bool
	}{
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
			plan := scenario.Plan{}
			for i := 0; i < (spec.N-1)/3; i++ {
				plan = plan.Then(scenario.ByzAt(0, spec.N-1-i, byz.NameEquivocate))
			}
			spec.Scenario = plan
			rep, err := run.Run(spec)
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
