package mont

import "math/bits"

// mul sets z = x*y*R^{-1} mod m (the Montgomery product) on w-word
// operands. Inputs must be < m; the output is < m. z may alias x and/or
// y: the product accumulates in locals and z is written only at the end.
func (mod *Modulus) mul(z, x, y []uint64) {
	if mod.w == 4 {
		mod.mul4((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	} else {
		mod.mul8((*[8]uint64)(z), (*[8]uint64)(x), (*[8]uint64)(y))
	}
}

// mul4 is the 4-word CIOS kernel. Each outer iteration folds in one word
// of y and immediately Montgomery-reduces one word, keeping the
// accumulator at 4 words + 1 bit (t4); the 128-bit column sums
// x[j]*yi + t[j] + carry and q*m[j] + t[j] + carry cannot overflow, so
// plain hi+carry adds are exact.
func (mod *Modulus) mul4(z, x, y *[4]uint64) {
	m0, m1, m2, m3 := mod.m[0], mod.m[1], mod.m[2], mod.m[3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	inv := mod.n0inv
	var t0, t1, t2, t3, t4 uint64
	for i := 0; i < 4; i++ {
		yi := y[i]
		var c, cc uint64
		hi, lo := bits.Mul64(x0, yi)
		t0, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x1, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x2, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x3, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t4, cc = bits.Add64(t4, c, 0)
		top := cc

		q := t0 * inv
		hi, lo = bits.Mul64(q, m0)
		_, cc = bits.Add64(lo, t0, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t3, cc = bits.Add64(t4, c, 0)
		t4 = top + cc
	}
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b := bits.Sub64(t1, m1, b)
	r2, b := bits.Sub64(t2, m2, b)
	r3, b := bits.Sub64(t3, m3, b)
	if t4 != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// mul8 is the 8-word CIOS kernel: mul4's schedule at twice the width.
func (mod *Modulus) mul8(z, x, y *[8]uint64) {
	m0, m1, m2, m3, m4, m5, m6, m7 := mod.m[0], mod.m[1], mod.m[2], mod.m[3], mod.m[4], mod.m[5], mod.m[6], mod.m[7]
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	inv := mod.n0inv
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 uint64
	for i := 0; i < 8; i++ {
		yi := y[i]
		var c, cc uint64
		hi, lo := bits.Mul64(x0, yi)
		t0, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x1, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x2, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x3, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x4, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t4, cc = bits.Add64(t4, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x5, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t5, cc = bits.Add64(t5, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x6, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t6, cc = bits.Add64(t6, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x7, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t7, cc = bits.Add64(t7, lo, 0)
		c = hi + cc
		t8, cc = bits.Add64(t8, c, 0)
		top := cc

		q := t0 * inv
		hi, lo = bits.Mul64(q, m0)
		_, cc = bits.Add64(lo, t0, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m4)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t4, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m5)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t4, cc = bits.Add64(t5, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m6)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t5, cc = bits.Add64(t6, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m7)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t6, cc = bits.Add64(t7, lo, 0)
		c = hi + cc
		t7, cc = bits.Add64(t8, c, 0)
		t8 = top + cc
	}
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b := bits.Sub64(t1, m1, b)
	r2, b := bits.Sub64(t2, m2, b)
	r3, b := bits.Sub64(t3, m3, b)
	r4, b := bits.Sub64(t4, m4, b)
	r5, b := bits.Sub64(t5, m5, b)
	r6, b := bits.Sub64(t6, m6, b)
	r7, b := bits.Sub64(t7, m7, b)
	if t8 != 0 || b == 0 {
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = r0, r1, r2, r3, r4, r5, r6, r7
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = t0, t1, t2, t3, t4, t5, t6, t7
	}
}
