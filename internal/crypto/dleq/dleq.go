// Package dleq implements non-interactive Chaum–Pedersen proofs of discrete
// logarithm equality over a Schnorr group (Fiat–Shamir transform).
//
// A proof convinces a verifier that log_{g1}(a) == log_{g2}(b) without
// revealing the exponent. The threshold coin attaches such proofs to its
// shares, and threshold encryption to a decryption share that must be
// checked on its own, so Byzantine nodes cannot inject garbage shares: a
// bad share fails verification and is discarded, which the
// fault-injection tests exercise.
package dleq

import (
	"errors"
	"io"
	"math/big"

	"repro/internal/crypto/group"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/shamir"
)

// Proof is a Fiat–Shamir Chaum–Pedersen proof (challenge, response).
type Proof struct {
	C *big.Int
	Z *big.Int
}

// Nonce draws a proof's nonce from rand.
func Nonce(g *group.Group, rand io.Reader) (*big.Int, error) { return shamir.RandInt(rand, g.Q) }

// Prove returns a proof that a = g1^x and b = g2^x share the exponent x,
// under the nonce w (Nonce). A prover that may never need the proof draws
// the nonce when it makes the claim, so its randomness is read alike
// whether or not the proof is made. The bases come as tables: both are
// raised to the nonce here and to other exponents by the caller and by
// every verifier.
func Prove(g *group.Group, g1, g2 *mont.Table, a, b, x, w *big.Int) *Proof {
	t1 := g1.Exp(w)
	t2 := g2.Exp(w)
	c := challenge(g, g1.Base(), g2.Base(), a, b, t1, t2)
	z := new(big.Int).Mul(c, x)
	z.Add(z, w)
	z.Mod(z, g.Q)
	return &Proof{C: c, Z: z}
}

// Verify checks a proof against the claimed pairs (g1, a) and (g2, b).
//
// In every use here (coin and decryption shares) a is a verification key
// that recurs across thousands of checks: it comes with its table and is
// membership-checked through the group's verdict memo. b is the share
// value, seen once — callers that verify the same share many times (one
// per simulated party) dedup whole verdicts a layer up — so it is checked
// exactly, and its two powers (b^Q for membership, b^-c for the
// commitment) share one short comb built here, which costs less than the
// second power alone would.
func Verify(g *group.Group, g1, g2, a *mont.Table, b *big.Int, p *Proof) error {
	if p == nil || p.C == nil || p.Z == nil {
		return errors.New("dleq: nil proof")
	}
	bt := g.Table(b, mont.TeethShort)
	if !g.IsElementCached(a.Base()) || !g.IsTableElement(bt) {
		return errors.New("dleq: claimed values not in group")
	}
	// Recompute commitments: t1 = g1^z * a^-c, t2 = g2^z * b^-c.
	negC := new(big.Int).Neg(p.C)
	negC.Mod(negC, g.Q)
	t1 := g.Mul(g1.Exp(p.Z), a.Exp(negC))
	t2 := g.Mul(g2.Exp(p.Z), bt.Exp(negC))
	if challenge(g, g1.Base(), g2.Base(), a.Base(), b, t1, t2).Cmp(p.C) != 0 {
		return errors.New("dleq: proof rejected")
	}
	return nil
}

func challenge(g *group.Group, parts ...*big.Int) *big.Int {
	bufs := make([][]byte, len(parts))
	for i, p := range parts {
		bufs[i] = p.Bytes()
	}
	return g.HashToScalar("dleq-v1", bufs...)
}
