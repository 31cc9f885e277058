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
// comb in a fifth of the multiplications again, and an inverse power
// through a comb is a Fermat-negated exponent, not an inversion.
//
// A value stays in the halves, as mont.Elems, from the split of its input
// to the one recombination of its output (mont.CRT.Join): only what
// leaves the package — a share's X, a signature, a proof's commitments —
// becomes a big.Int, and a check such as Verify's compares halves and
// allocates nothing.
//
// Combine does not go through exp: its k+1 short powers, of either sign,
// are one product in each half (root) — the numerator and the denominator
// each on one squaring chain, one inversion in words (mont.Modulus.Inv),
// the check sigma^e = H(msg) there — and one Garner step. What still
// reaches exp's short-inverse branch is share verification's challenge
// power (verifyShareFull: (x_i^2)^-c, and v_i^-c at the widths with no
// comb) at TS-768 and up, whose halves are long enough that a 256-bit c
// and an inversion cost less than a Fermat-negated exponent.
//
// This mirrors what a real signer does with its own key (RSA-CRT), except
// here the simulation plays every party and the dealer, so verification
// gets the same speedup — a simulator-level optimization, not a protocol
// change.
type accel struct {
	p, q crtPrime
	crt  *mont.CRT

	// The key's fixed bases, set by Deal; their combs are built on the
	// first signature share (v) or share verification (v_i) that reads
	// them.
	v   base
	vks []base
}

// crtPrime is one prime factor of the modulus with its engine.
type crtPrime struct {
	nm1 *big.Int // the prime minus 1: Fermat exponent reduction modulus
	mod *mont.Modulus
}

// base is a value about to be raised to a power. A key that knows its
// primes holds it in the halves (xp, xq) and v only when it came in as a
// big.Int; a key that does not holds v alone.
type base struct {
	v      *big.Int    // the value mod N
	xp, xq mont.Elem   // v mod p, mod q
	tp, tq *mont.Table // combs of xp, xq; nil for a base raised once
}

// invBits is about the exponent length one half-width inversion is worth:
// 30 bits at 6 words, where math/big inverts (4.6 µs against 40 µs for a
// 256-bit power), and 15 at 8 words, where mont.Modulus.Inv does (4 µs
// against 60 µs). Only verifyShareFull's challenge, at TS-768 and up, is
// short enough by it.
const invBits = 32

func newCRTPrime(n *big.Int) crtPrime {
	return crtPrime{nm1: new(big.Int).Sub(n, one), mod: mont.NewModulus(n)}
}

func newAccel(p, q *big.Int) *accel {
	a := &accel{p: newCRTPrime(p), q: newCRTPrime(q)}
	if a.crt = mont.NewCRT(a.p.mod, a.q.mod); a.crt == nil {
		return nil // not distinct primes; fall back to plain Exp
	}
	return a
}

// split prepares x for a single power.
func (a *accel) split(x *big.Int) base {
	b := base{v: x}
	a.p.mod.SetInt(&b.xp, x)
	a.q.mod.SetInt(&b.xq, x)
	return b
}

// fixed prepares x for many powers, with combs of its own (see table).
func (a *accel) fixed(x *big.Int, teeth int) base {
	b := a.split(x)
	a.table(&b, new(combs), teeth)
	return b
}

// combs are the comb tables of a base's two halves.
type combs struct{ p, q mont.Table }

// table gives b, at the widths that have them, the comb tables c, which
// are built on first use.
func (a *accel) table(b *base, c *combs, teeth int) {
	if a.p.mod.HasKernel() && a.q.mod.HasKernel() {
		a.p.mod.InitTable(&c.p, &b.xp, a.p.nm1.BitLen(), teeth)
		a.q.mod.InitTable(&c.q, &b.xq, a.q.nm1.BitLen(), teeth)
		b.tp, b.tq = &c.p, &c.q
	}
}

// raise returns b^ep in p's half and b^eq in q's, false when an exponent
// is negative and b is not a unit.
func (a *accel) raise(b base, ep, eq *big.Int) (base, bool) {
	var r base
	if (ep.Sign() < 0 || eq.Sign() < 0) && !a.isUnit(b) {
		return r, false
	}
	a.p.exp(&r.xp, &b.xp, b.tp, ep)
	a.q.exp(&r.xq, &b.xq, b.tq, eq)
	return r, true
}

// mul returns x*y in the halves.
func (a *accel) mul(x, y base) base {
	var r base
	a.p.mod.Mul(&r.xp, &x.xp, &y.xp)
	a.q.mod.Mul(&r.xq, &x.xq, &y.xq)
	return r
}

// value returns b mod p*q, recombined from its halves.
func (a *accel) value(b base) *big.Int { return a.crt.Join(&b.xp, &b.xq) }

// same reports whether x and y are one value mod p*q.
func (a *accel) same(x, y base) bool {
	return a.p.mod.Equal(&x.xp, &y.xp) && a.q.mod.Equal(&x.xq, &y.xq)
}

// isUnit reports whether b is invertible mod p*q: nonzero in both halves.
func (a *accel) isUnit(b base) bool {
	return !a.p.mod.IsZero(&b.xp) && !a.q.mod.IsZero(&b.xq)
}

// root is PublicKey.root in the CRT halves: each half's product is checked
// against x there, and only one that passes both is recombined.
func (a *accel) root(bases []base, f *fold, e *big.Int) *big.Int {
	var stack [16]mont.Elem
	xs := stack[:0]
	for i := range bases {
		xs = append(xs, bases[i].xp)
	}
	var yp, yq mont.Elem
	if !a.p.root(&yp, xs, f, e) {
		return nil
	}
	for i := range bases {
		xs[i] = bases[i].xq
	}
	if !a.q.root(&yq, xs, f, e) {
		return nil
	}
	return a.crt.Join(&yp, &yq)
}

// root sets y to the fold's product over xs, the last of which is x, mod
// the prime and reports whether its e-th power is x there.
func (cp *crtPrime) root(y *mont.Elem, xs []mont.Elem, f *fold, e *big.Int) bool {
	if !f.raiseIn(cp.mod, y, xs) {
		return false
	}
	var chk mont.Elem
	cp.mod.Pow(&chk, y, e)
	return cp.mod.Equal(&chk, &xs[len(xs)-1])
}

// reduce returns the exponent a power mod the prime takes for e: e itself
// when it is in [0, prime-1), and otherwise its residue mod prime-1 — the
// same power of a unit, by Fermat's little theorem — taken in
// [1, prime-1], so that 0, which is no unit, still raises to 0 (0^e = 0
// for e > 0, where a residue of 0 would give 0^0 = 1).
func (cp *crtPrime) reduce(e *big.Int) *big.Int {
	if e.Sign() >= 0 && e.Cmp(cp.nm1) < 0 {
		return e
	}
	r := new(big.Int).Mod(e, cp.nm1)
	if r.Sign() == 0 {
		r.Set(cp.nm1)
	}
	return r
}

// exp sets z = x^e mod the prime, through x's comb t when it has one. The
// exponent is reduced (reduce), which also turns a negative exponent — x
// must then be a unit — into its non-negative residue: x^-e =
// x^{(prime-1) - e}. That residue is as long as the prime. A comb does not
// care; without one, an exponent invBits shorter than the prime is raised
// as written and inverted instead, a half-width inversion costing about
// as much as invBits bits of exponent: the 256-bit challenge of
// verifyShareFull at TS-768 and up, whose halves are 384 bits or more (at
// TS-512 it is as long as a half, and is reduced). Combine's short
// exponents of either sign do not come here (root).
func (cp *crtPrime) exp(z, x *mont.Elem, t *mont.Table, e *big.Int) {
	if t == nil && e.Sign() < 0 && e.BitLen()+invBits < cp.nm1.BitLen() {
		var abs big.Int
		cp.mod.Pow(z, x, abs.Abs(e))
		cp.mod.Inv(z, z)
		return
	}
	e = cp.reduce(e)
	if t != nil {
		t.Pow(z, e)
		return
	}
	cp.mod.Pow(z, x, e)
}
