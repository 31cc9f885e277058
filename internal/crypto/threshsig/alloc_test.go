package threshsig

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/mont"
)

// TestThresholdSigAllocations pins what each operation of a dealt TS-512
// key, (k, l) = (2, 4), allocates once its message's context is built: the
// values in its CRT halves stay in words, and only what leaves the package
// is allocated.
//   - SignBare: X (a big.Int and its words), the share, its pending proof
//     and the nonce's bytes — 5.
//   - Verify: nothing.
//   - combine, the answer memo bypassed: the signature, σ and its words,
//     and for each half the inversion of the fold's denominator, which
//     stays on math/big (mont.Modulus.Inv: the words it hands to
//     big.Int.ModInverse and what that allocates).
//   - VerifyShare: 21, against 74 before its halves stayed in words: the
//     proof's exponents reduced for the halves, -c, and the three values
//     the challenge hashes. Its reductions divide, on math/big's pooled
//     scratch, so under the race detector (raceEnabled) it is not held
//     to the count.
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
	f := pk.foldFor(shares)
	if len(f.den.at) == 0 {
		t.Fatal("the fold has no denominator: the test no longer covers the inversion")
	}
	var x, inv mont.Elem
	acc := pk.acc
	acc.p.mod.SetInt(&x, sig.S)
	invAllocs := testing.AllocsPerRun(20, func() { acc.p.mod.Inv(&inv, &x) })
	acc.q.mod.SetInt(&x, sig.S)
	invAllocs += testing.AllocsPerRun(20, func() { acc.q.mod.Inv(&inv, &x) })

	for _, op := range []struct {
		name    string
		budget  float64
		divides bool
		run     func() error
	}{
		{"SignBare", 5, false, func() error { _, err := pk.SignBare(key.Shares[1], msg, rng); return err }},
		{"Verify", 0, false, func() error { return pk.Verify(msg, sig) }},
		{"combine", 3 + invAllocs, false, func() error { _, err := pk.combine(msg, shares); return err }},
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
}
