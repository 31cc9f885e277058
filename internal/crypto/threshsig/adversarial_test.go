package threshsig

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/crypto/mont"
)

// slowKey returns a copy of the public key with the memo cache and CRT
// accelerator detached: the historical slow path, used as the reference
// implementation the fast paths must agree with bit for bit.
func slowKey(pk PublicKey) *PublicKey {
	pk.acc = nil
	pk.cc = nil
	return &pk
}

// badShareMatrix returns shares exercising every rejection class the
// fault-injection (byz) tests feed the protocol: tampered value, proof
// transplanted to another index, garbage proof, missing proof, and
// out-of-range indices — plus the honest share they were derived from.
func badShareMatrix(t testing.TB, key *Key, msg []byte) []*SigShare {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	honest := make([]*SigShare, key.Public.L)
	for i := range honest {
		sh, err := key.Public.Sign(key.Shares[i], msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = sh
	}
	sh := honest[0]
	return []*SigShare{
		honest[0],
		honest[1],
		{Index: sh.Index, X: new(big.Int).Add(sh.X, big.NewInt(1)), C: sh.C, Z: sh.Z}, // tampered value
		{Index: 2, X: sh.X, C: sh.C, Z: sh.Z},                                         // transplanted index
		{Index: sh.Index, X: sh.X, C: big.NewInt(7), Z: big.NewInt(9)},                // garbage proof
		{Index: sh.Index, X: sh.X, C: nil, Z: nil},                                    // missing proof
		{Index: 0, X: sh.X, C: sh.C, Z: sh.Z},                                         // index underflow
		{Index: key.Public.L + 1, X: sh.X, C: sh.C, Z: sh.Z},                          // index overflow
		nil, // nil share
		honest[2],
		{Index: sh.Index, X: fixP(t), C: sh.C, Z: sh.Z},                              // shares a factor with N
		{Index: sh.Index, X: fixP(t), C: big.NewInt(0), Z: sh.Z},                     // same, nothing to invert
		{Index: sh.Index, X: sh.X, C: new(big.Int).Neg(sh.C), Z: sh.Z},               // negative challenge
		{Index: sh.Index, X: sh.X, C: sh.C, Z: new(big.Int).Neg(sh.Z)},               // negative response
		{Index: sh.Index, X: sh.X, C: sh.C, Z: new(big.Int).Lsh(sh.Z, 600)},          // response far past the comb
		{Index: sh.Index, X: sh.X, C: new(big.Int).Lsh(sh.C, 300), Z: sh.Z},          // oversized challenge
		{Index: sh.Index, X: new(big.Int).Sub(key.Public.N, sh.X), C: sh.C, Z: sh.Z}, // -x_i: same square
	}
}

func fixP(t testing.TB) *big.Int {
	t.Helper()
	fix, err := FixtureByName("TS-512")
	if err != nil {
		t.Fatal(err)
	}
	return fix.P
}

// TestDegenerateShareNamed: a share that is not a unit mod N (here the
// prime factor itself) is rejected for what it is, on the accelerated and
// on the plain path, by VerifyShare and by Combine — not by the challenge
// mismatch or failed final verification its garbage powers would cause
// further on.
func TestDegenerateShareNamed(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("degenerate")
	good, err := key.Public.Sign(key.Shares[0], msg, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	bad := &SigShare{Index: 2, X: fixP(t), C: good.C, Z: good.Z}
	for name, pk := range map[string]*PublicKey{"accel": &key.Public, "plain": slowKey(key.Public)} {
		if err := pk.VerifyShare(msg, bad); err == nil || !strings.Contains(err.Error(), "degenerate") {
			t.Errorf("%s: VerifyShare = %v, want a degenerate-share error", name, err)
		}
		for _, shares := range [][]*SigShare{{good, bad}, {bad, good}} {
			if _, err := pk.Combine(msg, shares); err == nil || !strings.Contains(err.Error(), "non-invertible") {
				t.Errorf("%s: Combine = %v, want a non-invertible-share error", name, err)
			}
		}
	}
}

// TestVerifyShareMatrix: for every share in the adversarial matrix the
// accelerated VerifyShare accepts exactly the three honest shares and the
// negated one (Shoup's proof and Combine both read x_i squared) — on first
// sight and again with the message's context memoized — and agrees with
// the slow reference path, which runs last so that nothing it does can be
// what the fast path reads.
func TestVerifyShareMatrix(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("matrix equivalence")
	shares := badShareMatrix(t, key, msg)
	honest := map[int]bool{0: true, 1: true, 9: true, 16: true}
	for _, pass := range []string{"first", "again"} {
		for i, sh := range shares {
			if got := key.Public.VerifyShare(msg, sh) == nil; got != honest[i] {
				t.Errorf("share %d (%s): accepted = %v, want %v", i, pass, got, honest[i])
			}
		}
	}
	ref := slowKey(key.Public)
	for i, sh := range shares {
		if got := ref.VerifyShare(msg, sh) == nil; got != honest[i] {
			t.Errorf("share %d: reference accepted = %v, want %v", i, got, honest[i])
		}
	}
}

// TestVerifierMatchesVerifyShare pins VerifyShare's memoized per-message
// context against the uncached reference on the adversarial matrix of two
// messages, checked interleaved and crosswise: contexts must not leak
// across messages, so no share made for one message passes on the other.
func TestVerifierMatchesVerifyShare(t *testing.T) {
	key := testKey(t, 2, 4)
	msgs := [][]byte{[]byte("ctx-a"), []byte("ctx-b")}
	matrix := [][]*SigShare{badShareMatrix(t, key, msgs[0]), badShareMatrix(t, key, msgs[1])}
	ref := slowKey(key.Public)
	for i := range matrix[0] {
		for m, msg := range msgs {
			for s, shares := range matrix {
				got := key.Public.VerifyShare(msg, shares[i])
				want := ref.VerifyShare(msg, shares[i])
				if (got == nil) != (want == nil) {
					t.Errorf("msg %q, share %d made for %q: fast %v, reference %v", msg, i, msgs[s], got, want)
				}
				if m != s && got == nil {
					t.Errorf("msg %q accepted share %d made for %q", msg, i, msgs[s])
				}
			}
		}
	}
}

// TestAccelMatchesPlainExp pins the CRT accelerator against math/big across
// edge exponents (0, 1, e >= p-1, e < 0), as given and reduced for the
// halves, and base values (0, 1, p, multiples of a prime factor).
func TestAccelMatchesPlainExp(t *testing.T) {
	fix := Fixtures()[0]
	acc := newAccel(fix.P, fix.Q)
	if acc == nil {
		t.Fatal("accelerator failed to initialize on fixture primes")
	}
	n := new(big.Int).Mul(fix.P, fix.Q)
	bases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Set(fix.P),            // ≡ 0 mod p
		new(big.Int).Lsh(fix.Q, 3),         // ≡ 0 mod q
		new(big.Int).Sub(n, big.NewInt(1)), // n-1
		new(big.Int).Rsh(n, 1),             // arbitrary large
	}
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537),
		new(big.Int).Sub(fix.P, big.NewInt(1)), // p-1 exactly
		new(big.Int).Mul(n, big.NewInt(3)),     // far beyond both p-1, q-1
		big.NewInt(-1), big.NewInt(-65537),     // inverse powers: nil for a non-unit
		new(big.Int).Neg(n),
	}
	for _, b := range bases {
		// One-shot, and through combs of both sizes (built by the first
		// exponent, read by the rest).
		for _, cb := range []base{acc.split(b), acc.fixed(b, mont.TeethShort), acc.fixed(b, mont.TeethLong)} {
			for _, e := range exps {
				want := new(big.Int).Exp(b, e, n)
				var got *big.Int
				if r, ok := acc.raise(cb, e, e); ok {
					got = acc.value(r)
				}
				if (got == nil) != (want == nil) || (got != nil && got.Cmp(want) != 0) {
					t.Errorf("acc.raise(%v, %v) = %v, want %v", b, e, got, want)
				}
				if e.Sign() < 0 {
					continue
				}
				// Reduced for the halves first, as Deal reduces a dealt
				// share's exponent.
				ep, eq := acc.p.reduce(e), acc.q.reduce(e)
				if r, _ := acc.raise(cb, ep, eq); acc.value(r).Cmp(want) != 0 {
					t.Errorf("acc.raise(%v, %v reduced) = %v, want %v", b, e, acc.value(r), want)
				}
			}
		}
	}
}

// BenchmarkVerifyShare measures one full (uncached, unaccelerated)
// share verification — the per-share cost the simulator paid before the
// raw-speed pass.
func BenchmarkVerifyShare(b *testing.B) {
	key := testKey(b, 2, 4)
	msg := []byte("bench message")
	sh, err := key.Public.Sign(key.Shares[0], msg, rand.New(rand.NewSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	ref := slowKey(key.Public)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ref.VerifyShare(msg, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignBare measures the bare shares of one fresh message by 1, 2
// and 4 of its signers, on the fast path with the memo: what a run pays
// per signed message when no tally turns to proofs. The message's base y
// is raised once per share, so the count of signers is what decides
// between a comb for y and a plain power.
func BenchmarkSignBare(b *testing.B) {
	key := testKey(b, 2, 4)
	msg := []byte("bench message 00000000")
	var next uint64 // never a message twice: the memo would hold its base
	for _, signers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("signers=%d", signers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < b.N; i++ {
				next++
				binary.BigEndian.PutUint64(msg[len(msg)-8:], next)
				for _, priv := range key.Shares[:signers] {
					if _, err := key.Public.SignBare(priv, msg, rng); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkVerifyShareAccel is BenchmarkVerifyShare on the dealt key,
// with its CRT accelerator and its memos: the per-verification cost on
// the fast path, the message's context built once, as every verifier of
// a message after its first finds it.
func BenchmarkVerifyShareAccel(b *testing.B) {
	key := testKey(b, 2, 4)
	msg := []byte("bench message")
	sh, err := key.Public.Sign(key.Shares[0], msg, rand.New(rand.NewSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := key.Public.VerifyShare(msg, sh); err != nil {
			b.Fatal(err)
		}
	}
}
