// Package mont is the repository's modular exponentiation engine: one
// set of calls — Exp, MulExp and the fixed-base Table — behind which every
// threshold-crypto operation raises its powers. Results are bit-exact
// with math/big (the reduced residue is unique and every call returns it
// fully reduced), so accept/reject decisions and every byte derived from
// an exponentiation are identical to the big.Int.Exp path; only the
// simulator's host time changes.
//
// Two things make it faster than calling big.Int.Exp per power:
//
//   - Fewer multiplications. A Table precomputes a Lim–Lee comb of one
//     base, after which a 256-bit exponent costs about 64 multiplications
//     (teeth = 8) instead of the ≈ 335 of a windowed square-and-multiply;
//     MulExp raises a product of powers on one shared squaring chain
//     (Straus), about 0.6× the cost of the powers taken separately. Every
//     hot call site has a recurring base or a product of powers. Exp and
//     MulExp window their exponents 4 bits at a time, or 2 bits below
//     86 bits, where the smaller window table is the cheaper one to build.
//   - Cheaper multiplications. For the two widths the light parameter
//     sets lean on — 4 words (the 256-bit CRT halves of TS-512) and 8
//     words (the SG-512 group, the halves of TS-1024) — an unrolled CIOS
//     (coarsely integrated operand scanning) Montgomery kernel works on
//     word arrays that never leave the stack: no nat allocations, no
//     normalization passes. At 4 words that is 1.8× math/big's
//     multiplication; at 8 words it is parity, and the gain there is the
//     multiplication count alone.
//
// The big.Int calls allocate their result and nothing else. A caller that
// chains operations — threshsig's CRT halves — stays in words between
// them: an Elem is one residue in the form the kernel works on, held by
// value, and Mul, Pow, MulPow, Inv, Table.Pow, Equal, IsZero and SetInt
// (of a non-negative value at most twice the modulus's width) read and
// write Elems without allocating. Inv is a binary GCD in stack words
// (inv.go). Int and CRT.Join are the exits, and allocate the big.Int
// they return. What is left allocating is a Table's comb, once per table,
// for a base that outlives one batch of powers.
//
// A modulus of any other width (or an even one, or a 32-bit platform) has
// no kernel and answers the same calls through math/big — its Elems hold
// a *big.Int — so callers have one path whatever the parameter set.
//
// A Modulus is immutable after construction, a Table is immutable once
// built (sync.Once), and all per-call scratch is on the stack, so every
// method is safe for concurrent use.
package mont

import (
	"math/big"
	"math/bits"
)

// maxWords is the widest kernel (8 words = 512 bits).
const maxWords = 8

// winSize is the entry count of one base's widest window table (4 bits).
const winSize = 16

// windowBits returns the window width for exponents of up to bits bits.
// A 4-bit table costs 12 multiplications more to build than a 2-bit one
// and saves 9/64 of a multiplication per exponent bit, so it pays from 86
// bits on; shorter exponents — the public exponent, the Lagrange and
// Bezout exponents of a threshold-signature combination — take 2 bits.
func windowBits(bits int) uint {
	if bits < 86 {
		return 2
	}
	return 4
}

// Modulus holds the precomputed Montgomery constants for one modulus. It
// is immutable after construction and safe for concurrent use.
type Modulus struct {
	nat   *big.Int         // the modulus as written
	w     int              // kernel width in words: 4, 8, or 0 (math/big answers)
	m     [maxWords]uint64 // modulus, little-endian words
	r2    [maxWords]uint64 // R^2 mod m (to-Montgomery factor), R = 2^(64w)
	r3    [maxWords]uint64 // R^3 mod m: takes a value's upper w words into the form
	one   [maxWords]uint64 // R mod m: 1 in Montgomery form
	n0inv uint64           // -m^{-1} mod 2^64
}

// Elem is one residue of a Modulus in the form its arithmetic works on.
// With a kernel it is w words in Montgomery form (x·R mod m), held by
// value, so an Elem on the stack costs no allocation; with none it is the
// residue as a *big.Int, which the calls that set it allocate afresh (or
// share with SetInt's reduced input) and never write. The zero Elem is
// unset: set it before reading it.
type Elem struct {
	w [maxWords]uint64
	n *big.Int
}

// NewModulus prepares m > 0 (nil otherwise). An odd 4- or 8-word modulus
// on a 64-bit platform gets a Montgomery kernel; every other modulus
// answers the same calls through math/big.
func NewModulus(m *big.Int) *Modulus {
	if m == nil || m.Sign() <= 0 {
		return nil
	}
	mod := &Modulus{nat: new(big.Int).Set(m)}
	words := m.Bits()
	if bits.UintSize != 64 || m.Bit(0) == 0 || (len(words) != 4 && len(words) != 8) {
		return mod
	}
	mod.w = len(words)
	load(mod.m[:], m)
	// inv = m[0]^{-1} mod 2^64 by Newton iteration: an odd m[0] is its own
	// inverse mod 8, and each step doubles the valid bit count (3 -> 96).
	inv := mod.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - mod.m[0]*inv
	}
	mod.n0inv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*mod.w))
	r.Mod(r, m)
	load(mod.one[:], r)
	r2 := new(big.Int).Mul(r, r)
	load(mod.r2[:], r2.Mod(r2, m))
	load(mod.r3[:], r2.Mod(r2.Mul(r2, r), m))
	return mod
}

// HasKernel reports whether the modulus runs on a Montgomery kernel, so
// that a Table of it is a comb (whose cost does not grow with the
// exponent) and not math/big behind the same call.
func (mod *Modulus) HasKernel() bool { return mod.w != 0 }

// Exp returns x^e mod m, fully reduced — bit-exact with
// new(big.Int).Exp(x, e, m). Negative exponents (modular inverses) take
// the big.Int path unchanged.
func (mod *Modulus) Exp(x, e *big.Int) *big.Int {
	if mod.w == 0 || e.Sign() < 0 {
		return new(big.Int).Exp(x, e, mod.nat)
	}
	var z Elem
	mod.SetInt(&z, x)
	mod.Pow(&z, &z, e)
	return mod.Int(&z)
}

// MulExp returns the product of bases[i]^exps[i] mod m, fully reduced,
// on one squaring chain shared by all the powers. A negative exponent
// sends the whole product through math/big; like big.Int.Exp, the result
// is then nil when the base has no inverse.
func (mod *Modulus) MulExp(bases, exps []*big.Int) *big.Int {
	kernel := mod.w != 0
	for _, e := range exps {
		kernel = kernel && e.Sign() >= 0
	}
	if !kernel {
		z := big.NewInt(1)
		for i, b := range bases {
			t := new(big.Int).Exp(b, exps[i], mod.nat)
			if t == nil {
				return nil
			}
			z.Mul(z, t)
			z.Mod(z, mod.nat)
		}
		return z
	}
	var stack [8]Elem
	xs := stack[:0]
	for _, b := range bases {
		var x Elem
		mod.SetInt(&x, b)
		xs = append(xs, x)
	}
	var z Elem
	mod.MulPow(&z, xs, exps)
	return mod.Int(&z)
}

// SetInt sets z to x mod m, for any x. With a kernel, an x of at most 2w
// words, non-negative — every residue of a modulus twice the width, such
// as an RSA value split into its CRT halves — is taken in two
// multiplications and an addition, x = hi·R + lo giving x·R = lo·R² +
// hi·R³ in Montgomery form, with no allocation; anything else is reduced
// by math/big first.
func (mod *Modulus) SetInt(z *Elem, x *big.Int) {
	if mod.w == 0 {
		if x.Sign() >= 0 && x.Cmp(mod.nat) < 0 {
			z.n = x
		} else {
			z.n = new(big.Int).Mod(x, mod.nat)
		}
		return
	}
	w, words := mod.w, x.Bits()
	if x.Sign() < 0 || len(words) > 2*w {
		x = new(big.Int).Mod(x, mod.nat)
		words = x.Bits()
	}
	var lo, hi [maxWords]uint64
	for i, wd := range words {
		if i < w {
			lo[i] = uint64(wd)
		} else {
			hi[i-w] = uint64(wd)
		}
	}
	// Either operand of the kernel may be any w-word value as long as the
	// other is below m: the product then stays below 2m before its final
	// subtraction.
	mod.mul(z.w[:w], lo[:w], mod.r2[:w])
	if len(words) > w {
		mod.mul(hi[:w], hi[:w], mod.r3[:w])
		mod.add(z.w[:w], z.w[:w], hi[:w])
	}
}

// IsZero reports whether x is 0 mod m.
func (mod *Modulus) IsZero(x *Elem) bool {
	if mod.w == 0 {
		return x.n.Sign() == 0
	}
	return isZero(x.w[:mod.w])
}

// Equal reports whether x and y are the same residue.
func (mod *Modulus) Equal(x, y *Elem) bool {
	if mod.w == 0 {
		return x.n.Cmp(y.n) == 0
	}
	return x.w == y.w
}

// Mul sets z = x·y mod m. z may alias x or y.
func (mod *Modulus) Mul(z, x, y *Elem) {
	if mod.w == 0 {
		p := new(big.Int).Mul(x.n, y.n)
		z.n = p.Mod(p, mod.nat)
		return
	}
	mod.mul(z.w[:mod.w], x.w[:mod.w], y.w[:mod.w])
}

// Pow sets z = x^e mod m for e ≥ 0 (it panics on a negative e: Inv takes
// inverses). z may alias x.
func (mod *Modulus) Pow(z, x *Elem, e *big.Int) {
	if e.Sign() < 0 {
		panic("mont: Pow with a negative exponent")
	}
	if mod.w == 0 {
		z.n = new(big.Int).Exp(x.n, e, mod.nat)
		return
	}
	var win [winSize * maxWords]uint64
	width := windowBits(e.BitLen())
	span := mod.w << width
	mod.window(win[:span], x)
	mod.powProduct(z.w[:mod.w], win[:span], width, [][]big.Word{e.Bits()})
}

// MulPow sets z to the product of xs[i]^es[i] mod m, every es[i] ≥ 0, on
// one squaring chain shared by all the powers. The bases are taken by
// value, so that a caller can gather them into a slice on its stack.
func (mod *Modulus) MulPow(z *Elem, xs []Elem, es []*big.Int) {
	for _, e := range es {
		if e.Sign() < 0 {
			panic("mont: MulPow with a negative exponent")
		}
	}
	if mod.w == 0 {
		p := big.NewInt(1)
		for i := range xs {
			p.Mul(p, new(big.Int).Exp(xs[i].n, es[i], mod.nat))
			p.Mod(p, mod.nat)
		}
		z.n = p
		return
	}
	bits := 0
	for _, e := range es {
		bits = max(bits, e.BitLen())
	}
	width := windowBits(bits)
	span := mod.w << width
	// Two bases with 4-bit windows — every DLEQ commitment, an N=4
	// combine — or eight with 2-bit ones fit the stack.
	var stack [2 * winSize * maxWords]uint64
	win := stack[:]
	if need := len(xs) * span; need > len(win) {
		win = make([]uint64, need)
	}
	var wstack [8][]big.Word
	words := wstack[:0]
	for i := range xs {
		mod.window(win[i*span:(i+1)*span], &xs[i])
		words = append(words, es[i].Bits())
	}
	mod.powProduct(z.w[:mod.w], win, width, words)
}

// Int returns x's residue as a fresh big.Int: the way out of the Elem
// form, and its one allocation.
func (mod *Modulus) Int(x *Elem) *big.Int {
	if mod.w == 0 {
		return new(big.Int).Set(x.n)
	}
	return new(big.Int).SetBits(mod.words(x))
}

// words returns x's residue as fresh big.Words, with a kernel.
func (mod *Modulus) words(x *Elem) []big.Word {
	var z [maxWords]uint64
	mod.plain(z[:mod.w], x.w[:mod.w])
	out := make([]big.Word, mod.w)
	for i, wd := range z[:mod.w] {
		out[i] = big.Word(wd)
	}
	return out
}

// window fills win with the window table of x: win[j] = x^j in
// Montgomery form, for j below the table's len(win)/w entries.
func (mod *Modulus) window(win []uint64, x *Elem) {
	w := mod.w
	copy(win[:w], mod.one[:w])
	copy(win[w:2*w], x.w[:w])
	for j := 2; j < len(win)/w; j++ {
		mod.mul(win[j*w:(j+1)*w], win[(j-1)*w:j*w], win[w:2*w])
	}
}

// powProduct sets z to the product over i of x_i^{exps[i]} in Montgomery
// form, where win holds the window tables of the x_i, of width bits each,
// back to back. Left-to-right windows over all exponents at once: one run
// of width squarings per window position serves every base. Leading zero
// windows are skipped, so tiny exponents (2, 65537) cost only their true
// length.
func (mod *Modulus) powProduct(z, win []uint64, width uint, exps [][]big.Word) {
	w, size := mod.w, 1<<width
	top := 0
	for _, e := range exps {
		top = max(top, len(e))
	}
	copy(z, mod.one[:w])
	started := false
	for i := top - 1; i >= 0; i-- {
		for sh := 64 - int(width); sh >= 0; sh -= int(width) {
			if started {
				for range width {
					mod.mul(z, z, z)
				}
			}
			for b, e := range exps {
				if i >= len(e) {
					continue
				}
				nib := int(uint64(e[i])>>uint(sh)) & (size - 1)
				if nib == 0 {
					continue
				}
				entry := win[(b*size+nib)*w : (b*size+nib+1)*w]
				if started {
					mod.mul(z, z, entry)
				} else {
					copy(z, entry)
					started = true
				}
			}
		}
	}
}

// load writes x's words into dst, zero-extended. x must fit.
func load(dst []uint64, x *big.Int) {
	clear(dst)
	for i, wd := range x.Bits() {
		dst[i] = uint64(wd)
	}
}

// plain sets z to x out of Montgomery form: a multiplication by plain 1
// strips the R factor.
func (mod *Modulus) plain(z, x []uint64) {
	var plain1 [maxWords]uint64
	plain1[0] = 1
	mod.mul(z, x, plain1[:mod.w])
}

// add sets z = x + y mod m for x, y < m.
func (mod *Modulus) add(z, x, y []uint64) {
	var s, d [maxWords]uint64
	var c, b uint64
	for i := range z {
		s[i], c = bits.Add64(x[i], y[i], c)
	}
	for i := range z {
		d[i], b = bits.Sub64(s[i], mod.m[i], b)
	}
	if c != 0 || b == 0 {
		copy(z, d[:len(z)])
	} else {
		copy(z, s[:len(z)])
	}
}

// sub sets z = x - y mod m for x, y < m.
func (mod *Modulus) sub(z, x, y []uint64) {
	var d [maxWords]uint64
	var b, c uint64
	for i := range z {
		d[i], b = bits.Sub64(x[i], y[i], b)
	}
	if b != 0 {
		for i := range z {
			d[i], c = bits.Add64(d[i], mod.m[i], c)
		}
	}
	copy(z, d[:len(z)])
}
