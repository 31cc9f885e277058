package threshsig

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestThresholdSigAllocations pins what each operation of a dealt TS-512
// key, (k, l) = (2, 4), allocates once its message's context is built: the
// values in its CRT halves stay in words, and only what leaves the package
// is allocated.
//   - SignBare: X (a big.Int and its words), the share, its pending proof
//     and the nonce's bytes — 5.
//   - Verify: nothing.
//   - Combine: the signature, σ and its words — 3 (the fold's
//     denominator is inverted in words, mont.Modulus.Inv).
//   - VerifyShare: 21, against 74 before its halves stayed in words: the
//     proof's exponents reduced for the halves, -c, and the three values
//     the challenge hashes. Its reductions divide, on math/big's pooled
//     scratch, so under the race detector (raceEnabled) it is not held
//     to the count.
//
// And a fresh message's context with its first SignBare, in bytes, at most
// 2 KiB (the key's memo bypassed, so that no map growth is counted): the
// context, one allocation with y's combs in it (704 B, the combs unbuilt:
// a share is a windowed power), its hash, x^{4*delta} and the share. The
// hash's reduction divides too, so this is not held under the race
// detector either.
func TestThresholdSigAllocations(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	msg := []byte("allocation budgets")
	rng := rand.New(rand.NewSource(9))
	proved, err := pk.Sign(key.Shares[0], msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	shares := bareShares(t, key, msg, 3)[:2]
	sig, err := pk.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if f := pk.foldFor(shares); len(f.den.at) == 0 {
		t.Fatal("the fold has no denominator: the test no longer covers the inversion")
	}
	for _, op := range []struct {
		name    string
		budget  float64
		divides bool
		run     func() error
	}{
		{"SignBare", 5, false, func() error { _, err := pk.SignBare(key.Shares[1], msg, rng); return err }},
		{"Verify", 0, false, func() error { return pk.Verify(msg, sig) }},
		{"Combine", 3, false, func() error { _, err := pk.Combine(msg, shares); return err }},
		{"VerifyShare", 21, true, func() error { return pk.VerifyShare(msg, proved) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if e := op.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if allocs > op.budget && !(op.divides && raceEnabled) {
			t.Errorf("%s: %v allocations, budget %v", op.name, allocs, op.budget)
		}
	}

	fresh := *pk
	fresh.cc = nil
	const runs, budget = 50, 2048
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := fresh.SignBare(key.Shares[1], msg, rng); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > budget && !raceEnabled {
		t.Errorf("a fresh context and its first SignBare: %d B, budget %d", b, budget)
	}
}
