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
// base used about a dozen times (1304 multiplications for twelve powers,
// against 1239 with 8 teeth at four times the memory) — or even twice.
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
	t := mod.newTable(expBits, teeth)
	t.base = base
	mod.SetInt(&t.x, base)
	return t
}

// NewElemTable is NewTable for a base already in Elem form.
func (mod *Modulus) NewElemTable(x *Elem, expBits, teeth int) *Table {
	t := mod.newTable(expBits, teeth)
	t.x = *x
	return t
}

func (mod *Modulus) newTable(expBits, teeth int) *Table {
	expBits = min(expBits, 64*maxWords)
	return &Table{mod: mod, teeth: teeth, cols: (expBits + teeth - 1) / teeth}
}

// Base returns the table's base as it was given to NewTable, nil for a
// table made by NewElemTable.
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
	w := mod.w
	// One spare word: the top row's bit index can pass 64*maxWords by up
	// to teeth-1.
	var ew [maxWords + 1]uint64
	load(ew[:], e)
	zw := z.w[:w]
	copy(zw, mod.one[:w])
	started := false
	for c := t.cols - 1; c >= 0; c-- {
		idx := 0
		for k := (t.teeth-1)*t.cols + c; k >= 0; k -= t.cols {
			idx = idx<<1 | int(ew[k>>6]>>(uint(k)&63)&1)
		}
		if started {
			mod.mul(zw, zw, zw)
		}
		if idx == 0 {
			continue
		}
		if started {
			mod.mul(zw, zw, t.comb[idx*w:(idx+1)*w])
		} else {
			copy(zw, t.comb[idx*w:(idx+1)*w])
			started = true
		}
	}
}

func (t *Table) build() {
	mod, w := t.mod, t.mod.w
	comb := make([]uint64, w<<t.teeth)
	entry := func(i int) []uint64 { return comb[i*w : (i+1)*w] }
	copy(entry(0), mod.one[:w])
	copy(entry(1), t.x.w[:w])
	for j := 1; j < t.teeth; j++ {
		p := entry(1 << j)
		copy(p, entry(1<<(j-1)))
		for s := 0; s < t.cols; s++ {
			mod.mul(p, p, p)
		}
	}
	for i := 3; i < 1<<t.teeth; i++ {
		if low := i & -i; low != i {
			mod.mul(entry(i), entry(i^low), entry(low))
		}
	}
	t.comb = comb
}
