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
// A modulus of any other width (or an even one, or a 32-bit platform) has
// no kernel and answers the same calls through big.Int.Exp, so callers
// have one path whatever the parameter set.
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
	one   [maxWords]uint64 // R mod m: 1 in Montgomery form
	n0inv uint64           // -m^{-1} mod 2^64
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
	load(mod.one[:], new(big.Int).Mod(r, m))
	load(mod.r2[:], r.Mod(r.Mul(r, r), m))
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
	var win [winSize * maxWords]uint64
	var z [maxWords]uint64
	width := windowBits(e.BitLen())
	span := mod.w << width
	mod.window(win[:span], x)
	mod.powProduct(z[:mod.w], win[:span], width, [][]big.Word{e.Bits()})
	return mod.fromMont(z[:mod.w])
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
	bits := 0
	for _, e := range exps {
		bits = max(bits, e.BitLen())
	}
	width := windowBits(bits)
	span := mod.w << width
	// Two bases with 4-bit windows — every DLEQ commitment, an N=4
	// combine — or eight with 2-bit ones fit the stack.
	var stack [2 * winSize * maxWords]uint64
	win := stack[:]
	if need := len(bases) * span; need > len(win) {
		win = make([]uint64, need)
	}
	var wstack [8][]big.Word
	words := wstack[:0]
	for i, b := range bases {
		mod.window(win[i*span:(i+1)*span], b)
		words = append(words, exps[i].Bits())
	}
	var z [maxWords]uint64
	mod.powProduct(z[:mod.w], win, width, words)
	return mod.fromMont(z[:mod.w])
}

// window fills win with the window table of x in Montgomery form: win[j]
// = x^j·R for j below the table's len(win)/w entries.
func (mod *Modulus) window(win []uint64, x *big.Int) {
	w := mod.w
	copy(win[:w], mod.one[:w])
	mod.toMont(win[w:2*w], x)
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

// toMont sets z = x·R mod m, reducing x into [0, m) first if need be.
func (mod *Modulus) toMont(z []uint64, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(mod.nat) >= 0 {
		x = new(big.Int).Mod(x, mod.nat)
	}
	load(z, x)
	mod.mul(z, z, mod.r2[:mod.w])
}

// fromMont leaves the Montgomery domain (a multiplication by plain 1
// strips the R factor) and returns the residue. z is overwritten.
func (mod *Modulus) fromMont(z []uint64) *big.Int {
	var plain1 [maxWords]uint64
	plain1[0] = 1
	mod.mul(z, z, plain1[:mod.w])
	out := make([]big.Word, mod.w)
	for i, wd := range z {
		out[i] = big.Word(wd)
	}
	return new(big.Int).SetBits(out)
}
