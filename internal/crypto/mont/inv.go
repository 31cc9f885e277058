package mont

import (
	"math/big"
	"math/bits"
)

// invBatch is the count of binary-GCD steps one batch takes on 64-bit
// approximations of the two operands, after Pornin, "Optimized Binary GCD
// for Modular Inversion" (IACR ePrint 2020/972): an approximation's low 31
// bits are the operand's own, so every step's parity is exact, and its top
// 33 bits are the operand's leading bits, which steer the comparisons. The
// batch's steps are then applied to the whole operands at once, as one
// 2×2 matrix of factors of at most 2^31.
const invBatch = 31

// Inv sets z = x^-1 mod m and reports whether x is a unit; z is left as
// it was when it is not. z may alias x.
//
// With a kernel it works in stack words and allocates nothing: the binary
// GCD of x's Montgomery form xR and m runs in batches of invBatch steps
// (inv), which give (xR)^-1, and a Montgomery product by R³ turns that
// into x^-1·R, the inverse in the form. Without one it is
// big.Int.ModInverse.
func (mod *Modulus) Inv(z, x *Elem) bool {
	if mod.w == 0 {
		v := new(big.Int).ModInverse(x.n, mod.nat)
		if v == nil {
			return false
		}
		z.n = v
		return true
	}
	var r [maxWords]uint64
	if !mod.inv(r[:mod.w], x.w[:mod.w]) {
		return false
	}
	mod.mul(z.w[:mod.w], r[:mod.w], mod.r3[:mod.w])
	return true
}

// inv sets z = y^-1 mod m for y < m, the plain inverse, and reports
// whether y is a unit (z is written only then). It keeps Pornin's
// invariants a = u·y and b = v·y mod m from (a, u, b, v) = (y, 1, m, 0):
// a step halves an even a, and replaces an odd a by (a - b)/2 after
// swapping the two pairs when a < b, so b stays odd. Once a is 0, b is
// the GCD, and v the inverse when that is 1. The factors of two batches
// multiply into one matrix of factors of at most 2^62, which updates u
// and v once and divides them by 2^62 mod m (Montgomery-style: adding the
// multiple of m that clears their low bits), so each stays in [0, m) and
// the result needs no correction at the end. Unlike Pornin's
// constant-time original, the loops here stop as soon as a is 0, and a
// batch skips a run of zero bits in one shift: nothing of a simulator's
// depends on the time it takes.
func (mod *Modulus) inv(z, y []uint64) bool {
	w := mod.w
	var a, b, u, v [maxWords]uint64
	copy(a[:w], y)
	copy(b[:w], mod.m[:w])
	u[0] = 1
	n := w // words a and b span
	for !isZero(a[:n]) {
		f0, g0, f1, g1 := int64(1), int64(0), int64(0), int64(1)
		var sh uint
		for k := 0; k < 2 && !isZero(a[:n]); k++ {
			p0, q0, p1, q1 := batch(approx(a[:n], b[:n], n), approx(b[:n], a[:n], n))
			var ta, tb [maxWords + 1]uint64
			lin(ta[:n+1], a[:n], b[:n], p0, q0)
			lin(tb[:n+1], a[:n], b[:n], p1, q1)
			if shr(a[:n], ta[:n+1], invBatch) {
				p0, q0 = -p0, -q0
			}
			if shr(b[:n], tb[:n+1], invBatch) {
				p1, q1 = -p1, -q1
			}
			f0, g0, f1, g1 = p0*f0+q0*f1, p0*g0+q0*g1, p1*f0+q1*f1, p1*g0+q1*g1
			sh += invBatch
			for n > 1 && a[n-1]|b[n-1] == 0 {
				n--
			}
		}
		var tu, tv [maxWords + 1]uint64
		lin(tu[:w+1], u[:w], v[:w], f0, g0)
		lin(tv[:w+1], u[:w], v[:w], f1, g1)
		mod.div(u[:w], tu[:w+1], sh)
		mod.div(v[:w], tv[:w+1], sh)
	}
	if b[0] != 1 || !isZero(b[1:n]) {
		return false
	}
	copy(z, v[:w])
	return true
}

// approx returns x's 64-bit approximation beside y, both spanning n
// words: its low 31 bits and, above them, the 33 bits that lead the
// longer of x and y — x itself when both fit in 64 bits.
func approx(x, y []uint64, n int) uint64 {
	top := x[n-1] | y[n-1]
	length := 64*(n-1) + bits.Len64(top)
	if length <= 64 {
		return x[0]
	}
	off := length - 33
	i, sh := off>>6, uint(off&63)
	hi := x[i] >> sh
	if i+1 < n {
		hi |= x[i+1] << (64 - sh)
	}
	return x[0]&(1<<31-1) | hi<<31
}

// batch runs invBatch steps of the binary GCD on the approximations a and
// b, and returns the factors that apply them to the whole operands:
// a' = (f0·a + g0·b)/2^31 and b' = (f1·a + g1·b)/2^31. A step that halves
// doubles (f1, g1) in place of halving a, so that the division comes once,
// at the end. Each factor stays within ±2^31. After its first shift a is
// odd at the top of each iteration, which swaps the pairs when a < b
// (by mask: the comparison is a coin toss), subtracts, and takes the run
// of zero bits that the subtraction leaves in one shift.
func batch(a, b uint64) (f0, g0, f1, g1 int64) {
	f0, g1 = 1, 1
	j := uint(bits.TrailingZeros64(a|1<<invBatch)) & 63
	a >>= j
	f1 <<= j
	g1 <<= j
	for j < invBatch {
		d, e := a-b, b-a
		df, dg := f0-f1, g0-g1
		if a < b {
			b, f1, g1 = a, f0, g0
			a, f0, g0 = e, -df, -dg
		} else {
			a, f0, g0 = d, df, dg
		}
		s := uint(bits.TrailingZeros64(a|1<<(invBatch-j))) & 63
		a >>= s
		f1 <<= s
		g1 <<= s
		j += s
	}
	return f0, g0, f1, g1
}

// lin sets z, one word longer than x and y, to x·f + y·g in two's
// complement, for |f| + |g| ≤ 2^62. A negative factor multiplies the
// complement of its operand, extended by a word of ones, by its magnitude
// and adds the magnitude once: -x = ^x + 1.
func lin(z, x, y []uint64, f, g int64) {
	mf, mg := uint64(f>>63), uint64(g>>63)
	af, ag := (uint64(f)^mf)-mf, (uint64(g)^mg)-mg
	c := af&mf + ag&mg
	for i := range x {
		h1, l1 := bits.Mul64(x[i]^mf, af)
		h2, l2 := bits.Mul64(y[i]^mg, ag)
		lo, k := bits.Add64(l1, l2, 0)
		hi := h1 + h2 + k
		lo, k = bits.Add64(lo, c, 0)
		z[i], c = lo, hi+k
	}
	z[len(x)] = mf*af + mg*ag + c
}

// shr sets x to |t / 2^s|, for 0 < s < 64, t being one word longer than x,
// in two's complement, divisible by 2^s, and of a quotient whose magnitude
// is below 2^(64·len(x)). It reports whether t was negative.
func shr(x, t []uint64, s uint) bool {
	n := len(x)
	for i := range x {
		x[i] = t[i]>>s | t[i+1]<<(64-s)
	}
	neg := t[n]>>63 != 0
	if neg {
		var c uint64 = 1
		for i := range x {
			x[i], c = bits.Add64(^x[i], 0, c)
		}
	}
	return neg
}

// div sets x = t / 2^s mod m, for 0 < s < 64 and t of w+1 words in two's
// complement with |t| ≤ 2^s·m: it adds the q·m, q < 2^s, that clears t's
// low s bits, shifts, which leaves a value in (-m, 2m), and brings that
// into [0, m).
func (mod *Modulus) div(x, t []uint64, s uint) {
	w, m := mod.w, mod.m[:mod.w]
	q := t[0] * mod.n0inv & (1<<s - 1)
	var c uint64
	for i := range m {
		hi, lo := bits.Mul64(m[i], q)
		var k uint64
		t[i], k = bits.Add64(t[i], lo, 0)
		hi += k
		t[i], k = bits.Add64(t[i], c, 0)
		c = hi + k
	}
	t[w] += c
	for i := range w {
		t[i] = t[i]>>s | t[i+1]<<(64-s)
	}
	t[w] = uint64(int64(t[w]) >> s)
	if t[w]>>63 != 0 {
		var k uint64
		for i := range m {
			x[i], k = bits.Add64(t[i], m[i], k)
		}
		return
	}
	if t[w] != 0 || !less(t[:w], m) {
		var k uint64
		for i := range m {
			x[i], k = bits.Sub64(t[i], m[i], k)
		}
		return
	}
	copy(x, t[:w])
}

// isZero reports whether every word of x is 0.
func isZero(x []uint64) bool {
	var or uint64
	for _, wd := range x {
		or |= wd
	}
	return or == 0
}

// less reports whether x < y, both of one length.
func less(x, y []uint64) bool {
	var b uint64
	for i := range x {
		_, b = bits.Sub64(x[i], y[i], b)
	}
	return b != 0
}
