package mont

import (
	"math/big"
	"sync"
)

// Comb sizes. A comb with t teeth over b-bit exponents stores 2^t
// multiples of the base and then answers each power in ceil(b/t)
// squarings and as many multiplications; building it costs about
// b + 2^t multiplications. Against ≈ 335 for one windowed 256-bit power:
//
//	teeth  entries  build  per power
//	  8      256     471      64
//	  6       64     272      86
//
// so 8 teeth suit a base that lives as long as its key, and 6 teeth a
// base raised a few times: a threshold-signature message's y, or a
// ciphertext's C1, to each of its L parties' shares.
const (
	TeethLong  = 8
	TeethShort = 6
)

// Table raises one fixed base to many exponents through a Lim–Lee comb.
// The comb is built on the first power that can use it, so constructing a
// Table costs one reduction of its base and a Table that is never read
// stays empty. Safe for concurrent use.
type Table struct {
	mod   *Modulus
	base  *big.Int // as given to NewTable; nil for a table of an Elem
	x     Elem     // the base, reduced
	teeth int      // rows of the exponent matrix
	cols  int      // its columns: the comb covers teeth*cols exponent bits

	once sync.Once
	// comb[i] = product over the set bits j of i of base^(2^(j*cols)), in
	// Montgomery form, 2^teeth entries of w words.
	comb []uint64
}

// NewTable returns the comb of base with the given teeth for exponents of
// up to expBits bits (at most 64*maxWords). Exp accepts any exponent; a
// longer one takes the windowed path.
func (mod *Modulus) NewTable(base *big.Int, expBits, teeth int) *Table {
	t := &Table{base: base}
	var x Elem
	mod.SetInt(&x, base)
	mod.InitTable(t, &x, expBits, teeth)
	return t
}

// InitTable makes t, unused until now, the comb of x, an Elem: NewTable
// in place, so that a caller can hold the table inside a value of its own
// and not as an allocation beside it.
func (mod *Modulus) InitTable(t *Table, x *Elem, expBits, teeth int) {
	expBits = min(expBits, 64*maxWords)
	t.mod, t.x, t.teeth, t.cols = mod, *x, teeth, (expBits+teeth-1)/teeth
}

// Base returns the table's base as it was given to NewTable, nil for a
// table made by InitTable.
func (t *Table) Base() *big.Int { return t.base }

// Exp returns base^e mod m, fully reduced — bit-exact with big.Int.Exp —
// for a table made by NewTable; a negative e takes math/big with the base
// as given.
func (t *Table) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 {
		return t.mod.Exp(t.base, e)
	}
	var z Elem
	t.Pow(&z, e)
	return t.mod.Int(&z)
}

// Pow sets z = base^e mod m for e ≥ 0, through the comb when the modulus
// has a kernel and e fits the comb's span, and by Modulus.Pow otherwise.
func (t *Table) Pow(z *Elem, e *big.Int) {
	mod := t.mod
	if mod.w == 0 || e.Sign() < 0 || e.BitLen() > t.teeth*t.cols {
		mod.Pow(z, &t.x, e)
		return
	}
	t.once.Do(t.build)
	mod.combPow(z.w[:mod.w], t.comb, t.teeth, t.cols, e)
}

func (t *Table) build() {
	t.comb = make([]uint64, t.mod.w<<t.teeth)
	t.mod.buildComb(t.comb, &t.x, t.teeth, t.cols)
}

// buildComb fills comb, 2^teeth entries of w words, with the Lim–Lee comb
// of x over teeth rows of cols exponent bits: entry i is the product over
// the set bits j of i of x^(2^(j*cols)), in Montgomery form.
func (mod *Modulus) buildComb(comb []uint64, x *Elem, teeth, cols int) {
	w := mod.w
	entry := func(i int) []uint64 { return comb[i*w : (i+1)*w] }
	copy(entry(0), mod.one[:w])
	copy(entry(1), x.w[:w])
	for j := 1; j < teeth; j++ {
		p := entry(1 << j)
		copy(p, entry(1<<(j-1)))
		for s := 0; s < cols; s++ {
			mod.mul(p, p, p)
		}
	}
	for i := 3; i < 1<<teeth; i++ {
		if low := i & -i; low != i {
			mod.mul(entry(i), entry(i^low), entry(low))
		}
	}
}

// combPow sets z to the power of comb's base by e ≥ 0, in Montgomery form;
// e must fit the comb's teeth*cols bits.
func (mod *Modulus) combPow(z, comb []uint64, teeth, cols int, e *big.Int) {
	w := mod.w
	// One spare word: the top row's bit index can pass 64*maxWords by up
	// to teeth-1.
	var ew [maxWords + 1]uint64
	load(ew[:], e)
	copy(z, mod.one[:w])
	started := false
	for c := cols - 1; c >= 0; c-- {
		idx := 0
		for k := (teeth-1)*cols + c; k >= 0; k -= cols {
			idx = idx<<1 | int(ew[k>>6]>>(uint(k)&63)&1)
		}
		if started {
			mod.mul(z, z, z)
		}
		if idx == 0 {
			continue
		}
		if started {
			mod.mul(z, z, comb[idx*w:(idx+1)*w])
		} else {
			copy(z, comb[idx*w:(idx+1)*w])
			started = true
		}
	}
}
