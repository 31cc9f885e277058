package mont

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// randOdd returns a random odd integer with exactly bits bits.
func randOdd(rng *rand.Rand, bitLen int) *big.Int {
	b := make([]byte, (bitLen+7)/8)
	rng.Read(b)
	x := new(big.Int).SetBytes(b)
	x.Rsh(x, uint(8*len(b)-bitLen))
	x.SetBit(x, bitLen-1, 1)
	x.SetBit(x, 0, 1)
	return x
}

func randBelow(rng *rand.Rand, m *big.Int) *big.Int {
	return new(big.Int).Rand(rng, m)
}

func randBits(rng *rand.Rand, n int) *big.Int {
	return new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(n)))
}

// randPrime returns a random prime with exactly bits bits.
func randPrime(rng *rand.Rand, bitLen int) *big.Int {
	for {
		if c := randOdd(rng, bitLen); c.ProbablyPrime(10) {
			return c
		}
	}
}

// checkAll compares the engine's four ways of raising x^e (and, with a
// second pair, x^e·y^f, and x to e and f on one comb) and its inversion
// of x against math/big. It is the one oracle behind the property test,
// the edge cases and the fuzz target.
func checkAll(t *testing.T, mod *Modulus, x, e, y, f *big.Int) {
	t.Helper()
	m := mod.nat
	want := new(big.Int).Exp(x, e, m)
	if got := mod.Exp(x, e); !same(got, want) {
		t.Fatalf("m=%v: Exp(%v, %v) = %v, want %v", m, x, e, got, want)
	}
	for _, shape := range [][2]int{{256, TeethShort}, {256, TeethLong}, {512, TeethLong}, {100, 3}, {4096, 7}} {
		expBits, teeth := shape[0], shape[1]
		tab := mod.NewTable(x, expBits, teeth)
		// Twice: the first call builds the comb, the second reads it.
		for pass := 0; pass < 2; pass++ {
			if got := tab.Exp(e); !same(got, want) {
				t.Fatalf("m=%v expBits=%d teeth=%d pass=%d: Table(%v).Exp(%v) = %v, want %v", m, expBits, teeth, pass, x, e, got, want)
			}
		}
	}
	var prod *big.Int
	if yf := new(big.Int).Exp(y, f, m); want != nil && yf != nil {
		prod = yf.Mul(yf, want)
		prod.Mod(prod, m)
	}
	if got := mod.MulExp([]*big.Int{x, y}, []*big.Int{e, f}); !same(got, prod) {
		t.Fatalf("m=%v: MulExp(%v^%v, %v^%v) = %v, want %v", m, x, e, y, f, got, prod)
	}
	checkInv(t, mod, x)
}

// checkInv compares Inv with big.Int.ModInverse: the inverse of a unit,
// and, for anything else, false with z left as it was.
func checkInv(t *testing.T, mod *Modulus, x *big.Int) {
	t.Helper()
	m := mod.nat
	var ex, z, before Elem
	mod.SetInt(&ex, x)
	mod.SetInt(&z, big.NewInt(7))
	before = z
	want := new(big.Int).ModInverse(new(big.Int).Mod(x, m), m)
	ok := mod.Inv(&z, &ex)
	switch {
	case ok != (want != nil):
		t.Fatalf("m=%v: Inv(%v) reports %v, ModInverse %v", m, x, ok, want)
	case ok && mod.Int(&z).Cmp(want) != 0:
		t.Fatalf("m=%v: Inv(%v) = %v, want %v", m, x, mod.Int(&z), want)
	case !ok && !mod.Equal(&z, &before):
		t.Fatalf("m=%v: Inv(%v) of a non-unit wrote %v", m, x, mod.Int(&z))
	}
}

// same treats two nils (no inverse, as big.Int.Exp reports it) as equal.
func same(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// testWidths covers both kernels at and below the top of their word
// range, and one width with no kernel (math/big behind the same calls).
var testWidths = []int{200, 225, 256, 450, 512, 320}

// TestMatchesBigInt cross-checks Exp, Table.Exp and MulExp against
// big.Int on random inputs, including exponents much longer and much
// shorter than the comb span.
func TestMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bitLen := range testWidths {
		m := randOdd(rng, bitLen)
		mod := NewModulus(m)
		if wantW := map[int]int{4: 4, 8: 8}[len(m.Bits())]; mod.w != wantW {
			t.Fatalf("%d-bit modulus: kernel width %d, want %d", bitLen, mod.w, wantW)
		}
		for _, ebits := range []int{1, 8, 64, 255, 256, 257, 2 * bitLen} {
			for trial := 0; trial < 6; trial++ {
				checkAll(t, mod, randBelow(rng, m), randBits(rng, ebits), randBelow(rng, m), randBits(rng, 256))
			}
		}
	}
}

func TestEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bitLen := range []int{256, 512, 320} {
		m := randOdd(rng, bitLen)
		mod := NewModulus(m)
		mm1 := new(big.Int).Sub(m, big.NewInt(1))
		all256 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
		bases := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), mm1,
			new(big.Int).Set(m),                     // x == m: reduced first
			new(big.Int).Add(m, big.NewInt(7)),      // x > m
			new(big.Int).Neg(big.NewInt(3)),         // x < 0
			new(big.Int).Lsh(big.NewInt(1), 64*9+1), // wider than any kernel
		}
		exps := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537), mm1,
			all256,                                  // fills the comb span exactly
			new(big.Int).Add(all256, big.NewInt(1)), // one bit past it
			new(big.Int).Lsh(mm1, 512),              // far past it
			big.NewInt(-1), big.NewInt(-3),          // inverse: math/big answers
		}
		for _, x := range bases {
			for _, e := range exps {
				checkAll(t, mod, x, e, mm1, big.NewInt(3))
				checkAll(t, mod, big.NewInt(5), all256, x, e)
			}
		}
	}
}

// TestInvMatchesBigInt checks Inv against big.Int.ModInverse at both
// kernel widths and on the math/big path, mod 3 times an odd number: over
// random residues, 0, 1 and m-1, and multiples of 3, which are no units.
// At the kernel widths it also inverts residues whose Montgomery words,
// which the GCD starts from, lead with m's own top bits (m - 2^k, m - 2^k
// - 2 and m less a random number 40 bits shorter than it) or are tiny:
// there the GCD's 64-bit approximations tie or mislead a comparison, and a
// batch's result comes out negative.
func TestInvMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	three := big.NewInt(3)
	for _, tc := range []struct{ bitLen, w int }{{256, 4}, {200, 4}, {512, 8}, {450, 8}, {320, 0}} {
		m := new(big.Int).Mul(three, randOdd(rng, tc.bitLen-2))
		mod := NewModulus(m)
		if mod.w != tc.w {
			t.Fatalf("%d-bit modulus: kernel width %d, want %d", m.BitLen(), mod.w, tc.w)
		}
		xs := []*big.Int{
			big.NewInt(0), big.NewInt(1), new(big.Int).Sub(m, big.NewInt(1)),
			three, new(big.Int).Sub(m, three), new(big.Int).Mul(three, randBits(rng, tc.bitLen-4)),
		}
		for range 300 {
			xs = append(xs, randBelow(rng, m))
		}
		if tc.w != 0 {
			// x = v·R^-1, so that SetInt puts v in x's words.
			rInv := new(big.Int).Lsh(big.NewInt(1), uint(64*tc.w))
			rInv.ModInverse(rInv, m)
			words := func(v *big.Int) *big.Int { return v.Mod(v.Mul(v, rInv), m) }
			for _, k := range []int{1, 31, 32, 33, 40, 64, 100, tc.bitLen - 40} {
				pk := new(big.Int).Lsh(big.NewInt(1), uint(k))
				xs = append(xs, words(new(big.Int).Sub(m, pk)), words(new(big.Int).Sub(m, pk.Add(pk, big.NewInt(2)))), words(pk))
			}
			for range 300 {
				xs = append(xs, words(new(big.Int).Sub(m, randBits(rng, tc.bitLen-40))))
			}
		}
		for _, x := range xs {
			checkInv(t, mod, x)
		}
	}
}

func TestMulExpManyBases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, bitLen := range []int{256, 512, 320} {
		m := randOdd(rng, bitLen)
		mod := NewModulus(m)
		for k := 0; k <= 5; k++ {
			bases := make([]*big.Int, k)
			exps := make([]*big.Int, k)
			want := big.NewInt(1)
			for i := range bases {
				bases[i], exps[i] = randBelow(rng, m), randBits(rng, 100+60*i)
				want.Mul(want, new(big.Int).Exp(bases[i], exps[i], m))
				want.Mod(want, m)
			}
			if got := mod.MulExp(bases, exps); got.Cmp(want) != 0 {
				t.Fatalf("%d bits, %d bases: got %v want %v", bitLen, k, got, want)
			}
		}
	}
}

func TestNewModulusKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7)} {
		if NewModulus(m) != nil {
			t.Errorf("accepted %v", m)
		}
	}
	for _, tc := range []struct {
		m *big.Int
		w int
	}{
		{big.NewInt(10), 0},
		{big.NewInt(1), 0},
		{randOdd(rng, 320), 0},
		{randOdd(rng, 64*maxWords+1), 0},
		{new(big.Int).Lsh(big.NewInt(1), 255), 0}, // 4 words, even
		{randOdd(rng, 193), 4},
		{randOdd(rng, 256), 4},
		{randOdd(rng, 449), 8},
		{randOdd(rng, 512), 8},
	} {
		mod := NewModulus(tc.m)
		if mod == nil || mod.w != tc.w {
			t.Errorf("%d-bit modulus %v: got %+v, want kernel width %d", tc.m.BitLen(), tc.m, mod, tc.w)
		}
	}
	// No kernel still answers, even mod an even number.
	ten := NewModulus(big.NewInt(10))
	if got := ten.Exp(big.NewInt(7), big.NewInt(3)); got.Int64() != 3 {
		t.Errorf("7^3 mod 10 = %v", got)
	}
	if got := ten.NewTable(big.NewInt(7), 8, TeethShort).Exp(big.NewInt(3)); got.Int64() != 3 {
		t.Errorf("table 7^3 mod 10 = %v", got)
	}
}

// TestConcurrent shares one Modulus and one Table, built lazily under
// contention, between goroutines under the race detector.
func TestConcurrent(t *testing.T) {
	for _, bitLen := range []int{256, 512} {
		rng := rand.New(rand.NewSource(4))
		m := randOdd(rng, bitLen)
		mod := NewModulus(m)
		base := randBelow(rng, m)
		tab := mod.NewTable(base, 256, TeethLong)
		done := make(chan bool, 4)
		for g := 0; g < 4; g++ {
			go func(seed int64) {
				rng := rand.New(rand.NewSource(seed))
				ok := true
				for i := 0; i < 30 && ok; i++ {
					x, e := randBelow(rng, m), randBits(rng, 256)
					ok = mod.Exp(x, e).Cmp(new(big.Int).Exp(x, e, m)) == 0 &&
						tab.Exp(e).Cmp(new(big.Int).Exp(base, e, m)) == 0
				}
				done <- ok
			}(int64(g))
		}
		for g := 0; g < 4; g++ {
			if !<-done {
				t.Fatalf("%d bits: result mismatch under concurrency", bitLen)
			}
		}
	}
}

// FuzzExpMatchesBig feeds arbitrary moduli, bases and exponents to every
// engine entry point and compares with math/big.
func FuzzExpMatchesBig(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, bitLen := range []int{256, 512, 320} {
		f.Add(randOdd(rng, bitLen).Bytes(), randBits(rng, bitLen).Bytes(), randBits(rng, 256).Bytes(),
			randBits(rng, bitLen).Bytes(), randBits(rng, 300).Bytes(), false)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0}, []byte{}, []byte{1}, []byte{1}, true)
	f.Fuzz(func(t *testing.T, mb, xb, eb, yb, fb []byte, neg bool) {
		if len(mb) > 80 || len(eb) > 160 || len(fb) > 160 {
			return // keep one execution in the microseconds
		}
		m := new(big.Int).SetBytes(mb)
		// Stretch short inputs onto the kernel widths: most mutations
		// would otherwise test only the math/big path.
		if n := m.BitLen(); n > 64 && n < 193 {
			m.Lsh(m, uint(256-n)).SetBit(m, 0, 1)
		}
		mod := NewModulus(m)
		if mod == nil {
			return
		}
		x, e := new(big.Int).SetBytes(xb), new(big.Int).SetBytes(eb)
		y, fe := new(big.Int).SetBytes(yb), new(big.Int).SetBytes(fb)
		if neg {
			x.Neg(x)
			fe.Neg(fe)
		}
		checkAll(t, mod, x, e, y, fe)
	})
}

func benchSetup(bitLen int) (mod *Modulus, m, x, y, e, f *big.Int) {
	rng := rand.New(rand.NewSource(5))
	m = randOdd(rng, bitLen)
	return NewModulus(m), m, randBelow(rng, m), randBelow(rng, m), randBits(rng, 256), randBits(rng, 256)
}

var sink *big.Int

func benchExp(b *testing.B, bitLen int, useMont bool) {
	mod, m, x, _, e, _ := benchSetup(bitLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if useMont {
			sink = mod.Exp(x, e)
		} else {
			sink = new(big.Int).Exp(x, e, m)
		}
	}
}

func BenchmarkExp256Mont(b *testing.B)   { benchExp(b, 256, true) }
func BenchmarkExp256BigInt(b *testing.B) { benchExp(b, 256, false) }
func BenchmarkExp512Mont(b *testing.B)   { benchExp(b, 512, true) }
func BenchmarkExp512BigInt(b *testing.B) { benchExp(b, 512, false) }

// BenchmarkExp512Table is one power through a built comb: 64
// multiplications at 8 teeth against Exp512Mont's ≈ 335.
func BenchmarkExp512Table(b *testing.B) {
	mod, _, x, _, e, _ := benchSetup(512)
	tab := mod.NewTable(x, 256, TeethLong)
	tab.Exp(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tab.Exp(e)
	}
}

// BenchmarkExp512TableBuild is what a fresh base pays before its first
// power, at the size used for per-ciphertext and per-message bases.
func BenchmarkExp512TableBuild(b *testing.B) {
	mod, _, x, _, e, _ := benchSetup(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = mod.NewTable(x, 256, TeethShort).Exp(e)
	}
}

// BenchmarkExp512MulExp is x^e·y^f on one squaring chain; compare with
// two BenchmarkExp512Mont.
func BenchmarkExp512MulExp(b *testing.B) {
	mod, _, x, y, e, f := benchSetup(512)
	bases, exps := []*big.Int{x, y}, []*big.Int{e, f}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = mod.MulExp(bases, exps)
	}
}

// BenchmarkInv is one inversion at each kernel width, by Inv in words and
// by big.Int.ModInverse, over the same 16 random residues of a prime.
func BenchmarkInv(b *testing.B) {
	for _, bitLen := range []int{256, 512} {
		rng := rand.New(rand.NewSource(13))
		m := randPrime(rng, bitLen)
		mod := NewModulus(m)
		var xs [16]*big.Int
		var es [16]Elem
		for i := range xs {
			xs[i] = randBelow(rng, m)
			mod.SetInt(&es[i], xs[i])
		}
		b.Run(fmt.Sprintf("words=%d/Inv", mod.w), func(b *testing.B) {
			b.ReportAllocs()
			var z Elem
			for i := 0; i < b.N; i++ {
				mod.Inv(&z, &es[i&15])
			}
		})
		b.Run(fmt.Sprintf("words=%d/ModInverse", mod.w), func(b *testing.B) {
			b.ReportAllocs()
			var z big.Int
			for i := 0; i < b.N; i++ {
				z.ModInverse(xs[i&15], m)
			}
		})
	}
}

// TestElemMatchesBigInt checks the Elem calls — SetInt from any integer,
// Mul, Pow, MulPow, Table.Pow, Inv, Equal, IsZero and Int — against
// math/big at both kernel widths and one with no kernel. SetInt's inputs
// reach its every branch: below m, up to 2w words (the RSA value a CRT
// half is split from, the top word full), wider, and negative.
func TestElemMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, bitLen := range []int{256, 250, 512, 320} {
		m := randOdd(rng, bitLen)
		mod := NewModulus(m)
		words := 2 * max(mod.w, 4)
		ins := []*big.Int{
			big.NewInt(0), big.NewInt(1), new(big.Int).Sub(m, big.NewInt(1)), new(big.Int).Set(m),
			randBits(rng, 64*words),
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(64*words)), big.NewInt(1)),
			new(big.Int).Lsh(big.NewInt(1), uint(64*words)),
			new(big.Int).Neg(randBits(rng, bitLen+10)),
		}
		for _, x := range ins {
			for _, y := range ins {
				var ex, ey, z Elem
				mod.SetInt(&ex, x)
				mod.SetInt(&ey, y)
				xm, ym := new(big.Int).Mod(x, m), new(big.Int).Mod(y, m)
				if got := mod.Int(&ex); got.Cmp(xm) != 0 {
					t.Fatalf("m=%v: SetInt(%v) reads %v", m, x, got)
				}
				if mod.IsZero(&ex) != (xm.Sign() == 0) || mod.Equal(&ex, &ey) != (xm.Cmp(ym) == 0) {
					t.Fatalf("m=%v: IsZero/Equal wrong for %v, %v", m, x, y)
				}
				mod.Mul(&z, &ex, &ey)
				if want := new(big.Int).Mod(new(big.Int).Mul(xm, ym), m); mod.Int(&z).Cmp(want) != 0 {
					t.Fatalf("m=%v: Mul(%v, %v) = %v, want %v", m, x, y, mod.Int(&z), want)
				}
				e, f := randBits(rng, 300), randBits(rng, 40)
				mod.Pow(&z, &ex, e)
				if want := new(big.Int).Exp(xm, e, m); mod.Int(&z).Cmp(want) != 0 {
					t.Fatalf("m=%v: Pow(%v, %v) = %v, want %v", m, x, e, mod.Int(&z), want)
				}
				var et Table
				mod.InitTable(&et, &ex, bitLen, TeethShort)
				et.Pow(&z, e)
				if want := new(big.Int).Exp(xm, e, m); mod.Int(&z).Cmp(want) != 0 {
					t.Fatalf("m=%v: Table.Pow(%v, %v) = %v, want %v", m, x, e, mod.Int(&z), want)
				}
				mod.MulPow(&z, []Elem{ex, ey}, []*big.Int{e, f})
				want := new(big.Int).Mul(new(big.Int).Exp(xm, e, m), new(big.Int).Exp(ym, f, m))
				if want.Mod(want, m); mod.Int(&z).Cmp(want) != 0 {
					t.Fatalf("m=%v: MulPow = %v, want %v", m, mod.Int(&z), want)
				}
				inv := new(big.Int).ModInverse(xm, m)
				if ok := mod.Inv(&z, &ex); ok != (inv != nil) || (ok && mod.Int(&z).Cmp(inv) != 0) {
					t.Fatalf("m=%v: Inv(%v) = %v, %v; want %v", m, x, mod.Int(&z), ok, inv)
				}
			}
		}
	}
}

// TestCRTJoin checks Join against Garner on math/big, for prime pairs on
// one kernel width (the words path), pairs of mixed and kernel-less widths
// (math/big behind the same call), and either prime the larger.
func TestCRTJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, pair := range [][2]int{{256, 256}, {240, 256}, {512, 512}, {256, 512}, {384, 384}} {
		p, q := randPrime(rng, pair[0]), randPrime(rng, pair[1])
		for _, pq := range [][2]*big.Int{{p, q}, {q, p}} {
			mp, mq := NewModulus(pq[0]), NewModulus(pq[1])
			c := NewCRT(mp, mq)
			n := new(big.Int).Mul(pq[0], pq[1])
			for _, y := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), pq[0], pq[1], randBelow(rng, n), randBelow(rng, n)} {
				var yp, yq Elem
				mp.SetInt(&yp, y)
				mq.SetInt(&yq, y)
				if got := c.Join(&yp, &yq); got.Cmp(y) != 0 {
					t.Fatalf("%d/%d bits: Join of %v's residues = %v", pair[0], pair[1], y, got)
				}
			}
		}
	}
	if m := NewModulus(big.NewInt(7)); NewCRT(m, m) != nil {
		t.Error("a CRT of a modulus with itself")
	}
}

// TestElemCallsAllocateNothing: at a kernel width, the Elem calls work on
// the stack, Inv's GCD included (at 8 words too);
// Int and Join allocate only the big.Int they return and its words.
func TestElemCallsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, q := randPrime(rng, 256), randPrime(rng, 256)
	mod, modQ := NewModulus(m), NewModulus(q)
	c := NewCRT(mod, modQ)
	wide := randBelow(rng, new(big.Int).Mul(m, q))
	e := randBits(rng, 256)
	var x, y, z Elem
	mod.SetInt(&x, wide)
	var tab Table
	mod.InitTable(&tab, &x, 256, TeethShort)
	tab.Pow(&z, e) // builds the comb
	xs, es := []Elem{x, x}, []*big.Int{e, e}
	mod8 := NewModulus(randPrime(rng, 512))
	var x8 Elem
	mod8.SetInt(&x8, wide)
	for name, f := range map[string]func(){
		"SetInt": func() { mod.SetInt(&y, wide) },
		"Mul":    func() { mod.Mul(&z, &x, &y) },
		"Pow":    func() { mod.Pow(&z, &x, e) },
		"MulPow": func() { mod.MulPow(&z, xs, es) },
		"Inv":    func() { mod.Inv(&z, &x) },
		"Inv8":   func() { mod8.Inv(&z, &x8) },
		"Table":  func() { tab.Pow(&z, e) },
		"Equal":  func() { _ = mod.Equal(&x, &y) || mod.IsZero(&z) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocations, want none", name, allocs)
		}
	}
	modQ.SetInt(&y, wide)
	if allocs := testing.AllocsPerRun(20, func() { sink = c.Join(&x, &y) }); allocs != 2 {
		t.Errorf("Join: %v allocations, want 2 (the big.Int and its words)", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { sink = mod.Int(&x) }); allocs != 2 {
		t.Errorf("Int: %v allocations, want 2 (the big.Int and its words)", allocs)
	}
}
