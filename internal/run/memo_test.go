package run_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
	"repro/internal/protocol"
	"repro/internal/run"
)

// memoSpec is a short hb_sc chain: threshold encryption, threshold-signed
// coins and DONE proofs, so every memo of the ideal threshold suite a run
// uses is on its path. Each caller passes a seed no other test uses, so
// its crypto.DealCached suite starts cold.
func memoSpec(seed int64) run.Spec {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(4)
	spec.Seed = seed
	return spec
}

func mustDigest(t *testing.T, spec run.Spec) string {
	t.Helper()
	rep, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return reportDigest(t, rep)
}

// memoCap is memo.Cap, the bound of every ideal key's memo.
const memoCap = 4096

// fillMemos leaves the memos of the ideal threshold suite a run uses two
// entries short of their cap, on a suite nothing has touched yet: both
// signature keys' signatures, the coin's elements, and the decryption
// key's KEM secrets and openings. A run that follows overflows each of
// them within its first epoch, the maps are cleared under it, and it goes
// on with whatever it re-derives.
func fillMemos(t *testing.T, spec run.Spec) {
	t.Helper()
	suites, err := run.DealtSuites(spec)
	if err != nil {
		t.Fatal(err)
	}
	ops := suites[0].Ops
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < memoCap-2; i++ {
		msg := []byte(fmt.Sprintf("filler/%d", i))
		for _, sig := range []struct {
			key    crypto.SigScheme
			shares func(*crypto.Suite) threshsig.PrivateShare
		}{
			{ops.Low, func(s *crypto.Suite) threshsig.PrivateShare { return s.TSLowShare }},
			{ops.High, func(s *crypto.Suite) threshsig.PrivateShare { return s.TSHighShare }},
		} {
			var shares []*threshsig.SigShare
			for _, s := range suites {
				sh, err := sig.key.SignBare(sig.shares(s), msg, rng)
				if err != nil {
					t.Fatal(err)
				}
				shares = append(shares, sh)
			}
			if _, err := sig.key.Combine(msg, shares); err != nil {
				t.Fatal(err)
			}
		}
		var coins []*threshcoin.CoinShare
		var decs []*threshenc.DecShare
		ct, err := ops.Dec.Encrypt(msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range suites {
			c, err := ops.Coin.Share(s.TCShare, msg, rng)
			if err != nil {
				t.Fatal(err)
			}
			d, err := ops.Dec.DecryptShareBare(s.TEShare, ct, rng)
			if err != nil {
				t.Fatal(err)
			}
			coins, decs = append(coins, c), append(decs, d)
		}
		if _, err := ops.Coin.Combine(msg, coins); err != nil {
			t.Fatal(err)
		}
		if _, err := ops.Dec.CombineBare(ct, decs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoStateDoesNotMoveTrajectory: what a run finds in the ideal
// threshold suite's memos — nothing, everything, or maps that overflow
// and are cleared under it — changes host time only, never a byte of the
// outcome.
func TestMemoStateDoesNotMoveTrajectory(t *testing.T) {
	t.Run("cold-warm", func(t *testing.T) {
		spec := memoSpec(0x15c01d)
		cold := mustDigest(t, spec) // builds every table, fills every memo
		if warm := mustDigest(t, spec); warm != cold {
			t.Errorf("warm run %s differs from cold run %s", warm, cold)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		spec := memoSpec(0x15c02d)
		fillMemos(t, spec)
		over := mustDigest(t, spec)
		if warm := mustDigest(t, spec); warm != over {
			t.Errorf("warm run %s differs from the run whose memos overflowed %s", warm, over)
		}
	})
	// Two runs race to fill the memos of one cold suite (the -race job is
	// what makes this a check).
	t.Run("concurrent", func(t *testing.T) {
		spec := memoSpec(0x15c03d)
		var reps [2]*run.Report
		var errs [2]error
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = run.Run(spec)
			}()
		}
		wg.Wait()
		var got [2]string
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			got[i] = reportDigest(t, rep)
		}
		if got[0] != got[1] {
			t.Errorf("concurrent runs differ: %s vs %s", got[0], got[1])
		}
		if warm := mustDigest(t, spec); warm != got[0] {
			t.Errorf("warm run %s differs from the concurrent cold runs %s", warm, got[0])
		}
	})
}
