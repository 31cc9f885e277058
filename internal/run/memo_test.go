package run_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
	"repro/internal/protocol"
	"repro/internal/run"
)

// memoSpec is a short hb_sc chain: threshold encryption, threshold-signed
// coins and DONE proofs, so every memo and every comb table of the crypto
// layer is on its path. Each caller passes a seed no other test uses, so
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

// memoCap is cacheCap of threshsig, threshenc and threshcoin.
const memoCap = 4096

// fillMemos leaves the per-message and combination memos of both
// threshold-signature keys and the per-ciphertext, verdict and
// interpolation memos of the encryption key two entries short of their
// cap, on a suite nothing has touched yet: a run that follows overflows
// each of them within its first epoch, the maps are cleared under it, and
// it goes on with whatever it re-derives.
func fillMemos(t *testing.T, spec run.Spec) {
	t.Helper()
	suites, err := run.DealtSuites(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := suites[0]
	rng := rand.New(rand.NewSource(99))
	// A share that fails group membership: rejected (and the verdict
	// memoized) right after the ciphertext's context is created.
	junk := &threshenc.DecShare{Index: 1, V: big.NewInt(2),
		Proof: &dleq.Proof{C: big.NewInt(1), Z: big.NewInt(1)}}
	for i := 0; i < memoCap-2; i++ {
		msg := []byte(fmt.Sprintf("filler/%d", i))
		s.TSLow.Verifier(msg)
		s.TSHigh.Verifier(msg)
		ct, err := s.TE.Encrypt(msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if s.TE.VerifyShare(ct, junk) == nil {
			t.Fatal("junk decryption share accepted")
		}
		// Shares of distinct values, in range, that combine to nothing
		// any run asks for: one memoized answer per key each.
		sigs := make([]*threshsig.SigShare, max(s.TSLow.K, s.TSHigh.K))
		decs := make([]*threshenc.DecShare, s.TE.K)
		for j := range sigs {
			sigs[j] = &threshsig.SigShare{Index: j + 1, X: big.NewInt(int64(len(sigs)*i + j + 2))}
		}
		for j := range decs {
			decs[j] = &threshenc.DecShare{Index: j + 1, V: big.NewInt(int64(len(decs)*i + j + 2))}
		}
		for _, key := range []*threshsig.PublicKey{s.TSLow, s.TSHigh} {
			if _, err := key.Combine(msg, sigs); err == nil {
				t.Fatal("filler signature shares combined")
			}
		}
		if _, err := s.TE.Combine(ct, decs); err == nil {
			t.Fatal("filler decryption shares opened a ciphertext")
		}
	}
}

// TestMemoStateDoesNotMoveTrajectory: what a run finds in the crypto
// memos — nothing, everything, or maps that overflow and are cleared
// under it — changes host time only, never a byte of the outcome.
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
	// Two runs race to build the lazily built tables of one cold suite
	// (the -race job is what makes this a check).
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
