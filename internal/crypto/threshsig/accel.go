package threshsig

import (
	"math/big"

	"repro/internal/crypto/mont"
)

// accel is the CRT exponentiation accelerator. The dealer knows the
// fixture primes p and q of the modulus n = p*q, so every modular
// exponentiation in the scheme can run as two half-size exponentiations
// (with Fermat-reduced exponents) recombined by Garner's formula. This is
// bit-exact — x^e mod n for every x and e — so accept/reject decisions,
// combined signatures, and every byte on the simulated wire are identical
// to the plain big.Int.Exp path; only the simulator's wall-clock cost
// changes (roughly 4x less work per exponentiation: half the operand
// width and, for the scheme's oversized integer exponents, half the
// exponent length). The halves run on the mont engine, so a base that
// recurs — v, the v_i, each message's x^{2*delta} — is raised through a
// comb table in a fifth of the multiplications again, and an inverse
// power through a comb is a Fermat-negated exponent, not a ModInverse.
//
// Combine does not go through exp: its k+1 short powers, of either sign,
// are one product in each half (root) — the numerator and the denominator
// each on one squaring chain, one ModInverse, the check sigma^e = H(msg)
// there — and one Garner step. What still reaches exp's short-inverse
// branch is share verification's challenge power (verifyShareFull:
// (x_i^2)^-c, and v_i^-c at the widths with no comb) at TS-768 and up,
// whose halves are long enough that a 256-bit c and an inversion cost less
// than a Fermat-negated exponent.
//
// This mirrors what a real signer does with its own key (RSA-CRT), except
// here the simulation plays every party and the dealer, so verification
// gets the same speedup — a simulator-level optimization, not a protocol
// change.
type accel struct {
	p, q  crtPrime
	qInvP *big.Int // q^{-1} mod p: Garner recombination constant

	// The key's fixed bases, set by Deal; their combs are built on the
	// first signature share (v) or share verification (v_i) that reads
	// them.
	v   base
	vks []base
}

// crtPrime is one prime factor of the modulus with its engine.
type crtPrime struct {
	n   *big.Int // the prime
	nm1 *big.Int // n-1: Fermat exponent reduction modulus
	mod *mont.Modulus
}

// base is a value about to be raised to a power.
type base struct {
	v      *big.Int    // the value mod N
	xp, xq *big.Int    // v mod p, mod q; nil when the key does not know its primes
	tp, tq *mont.Table // combs of xp, xq; nil for a base raised once
}

// invBits is the exponent length one half-width ModInverse is worth
// (3 µs against 16 µs for a 256-bit power at 4 words). Only
// verifyShareFull's challenge, at TS-768 and up, is short enough by it.
const invBits = 48

func newCRTPrime(n *big.Int) crtPrime {
	return crtPrime{n: n, nm1: new(big.Int).Sub(n, one), mod: mont.NewModulus(n)}
}

func newAccel(p, q *big.Int) *accel {
	inv := new(big.Int).ModInverse(q, p)
	if inv == nil {
		return nil // not distinct primes; fall back to plain Exp
	}
	return &accel{p: newCRTPrime(p), q: newCRTPrime(q), qInvP: inv}
}

// split prepares x for a single power.
func (a *accel) split(x *big.Int) base {
	return base{v: x, xp: new(big.Int).Mod(x, a.p.n), xq: new(big.Int).Mod(x, a.q.n)}
}

// fixed prepares x for many powers: split plus, at the widths that have
// them, comb tables, which are built on first use.
func (a *accel) fixed(x *big.Int, teeth int) base {
	b := a.split(x)
	if a.p.mod.HasKernel() && a.q.mod.HasKernel() {
		b.tp = a.p.mod.NewTable(b.xp, a.p.nm1.BitLen(), teeth)
		b.tq = a.q.mod.NewTable(b.xq, a.q.nm1.BitLen(), teeth)
	}
	return b
}

// exp returns b^e mod p*q. A negative e is the inverse power, nil when b
// is not a unit — what big.Int.Exp answers.
func (a *accel) exp(b base, e *big.Int) *big.Int {
	if e.Sign() < 0 && (b.xp.Sign() == 0 || b.xq.Sign() == 0) {
		return nil
	}
	return a.garner(a.p.exp(b.xp, b.tp, e), a.q.exp(b.xq, b.tq, e))
}

// root is PublicKey.root in the CRT halves: each half's product is checked
// against x there, and only one that passes both is recombined.
func (a *accel) root(bases []base, f *fold, e *big.Int) *big.Int {
	var stack [8]*big.Int
	xs := stack[:0]
	for _, b := range bases {
		xs = append(xs, b.xp)
	}
	yp := a.p.root(xs, f, e)
	if yp == nil {
		return nil
	}
	for i, b := range bases {
		xs[i] = b.xq
	}
	yq := a.q.root(xs, f, e)
	if yq == nil {
		return nil
	}
	return a.garner(yp, yq)
}

// garner returns the y in [0, p*q) with y = yp mod p and y = yq mod q:
// y = yq + q * (qInvP * (yp - yq) mod p). yp is overwritten.
func (a *accel) garner(yp, yq *big.Int) *big.Int {
	h := yp.Sub(yp, yq)
	h.Mul(h, a.qInvP)
	h.Mod(h, a.p.n)
	h.Mul(h, a.q.n)
	return h.Add(h, yq)
}

// root returns the fold's product over xs, the last of which is x, mod
// the prime when its e-th power is x there, and nil otherwise.
func (cp *crtPrime) root(xs []*big.Int, f *fold, e *big.Int) *big.Int {
	y := f.raise(cp.mod, cp.n, xs)
	if cp.mod.Exp(y, e).Cmp(xs[len(xs)-1]) != 0 {
		return nil
	}
	return y
}

// exp computes x^e mod the prime for x in [0, prime), through x's comb t
// when it has one. The exponent is reduced mod prime-1 (valid by Fermat's
// little theorem for units; x = 0 is handled explicitly, where the
// reduction would be wrong: 0^e = 0 for e > 0 but 0^0 = 1), which also
// turns a negative exponent — x must then be a unit — into its
// non-negative residue: x^-e = x^{(prime-1) - e}. That residue is as long
// as the prime. A comb does not care; without one, an exponent invBits
// shorter than the prime is raised as written and inverted instead, a
// half-width ModInverse costing about as much as invBits bits of exponent:
// the 256-bit challenge of verifyShareFull at TS-768 and up, whose halves
// are 384 bits or more (at TS-512 it is as long as a half, and is
// reduced). Combine's short exponents of either sign do not come here
// (root).
func (cp *crtPrime) exp(x *big.Int, t *mont.Table, e *big.Int) *big.Int {
	if x.Sign() == 0 {
		if e.Sign() == 0 {
			return big.NewInt(1)
		}
		return new(big.Int)
	}
	if t == nil && e.Sign() < 0 && e.BitLen()+invBits < cp.nm1.BitLen() {
		y := cp.mod.Exp(x, new(big.Int).Neg(e))
		return y.ModInverse(y, cp.n)
	}
	if e.Sign() < 0 || e.Cmp(cp.nm1) >= 0 {
		e = new(big.Int).Mod(e, cp.nm1)
	}
	if t != nil {
		return t.Exp(e)
	}
	return cp.mod.Exp(x, e)
}
