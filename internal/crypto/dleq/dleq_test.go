package dleq

import (
	"io"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/group"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/shamir"
)

func testGroup() *group.Group { return group.Default() }

func tab(g *group.Group, v *big.Int) *mont.Table { return g.Table(v, mont.TeethShort) }

// prove draws a nonce from rand and proves under it.
func prove(t testing.TB, g *group.Group, g1, g2 *mont.Table, a, b, x *big.Int, rand io.Reader) *Proof {
	t.Helper()
	w, err := Nonce(g, rand)
	if err != nil {
		t.Fatal(err)
	}
	return Prove(g, g1, g2, a, b, x, w)
}

// refProve and refVerify are the scheme written directly over big.Int,
// the reference the table-driven implementation must match bit for bit.
func refProve(g *group.Group, g1, g2, a, b, x *big.Int, rand io.Reader) *Proof {
	w, _ := shamir.RandInt(rand, g.Q)
	t1 := new(big.Int).Exp(g1, w, g.P)
	t2 := new(big.Int).Exp(g2, w, g.P)
	c := challenge(g, g1, g2, a, b, t1, t2)
	z := new(big.Int).Mul(c, x)
	z.Add(z, w)
	return &Proof{C: c, Z: z.Mod(z, g.Q)}
}

func refVerify(g *group.Group, g1, g2, a, b *big.Int, p *Proof) bool {
	if !g.IsElement(a) || !g.IsElement(b) {
		return false
	}
	pow := func(base, e *big.Int) *big.Int { return new(big.Int).Exp(base, e, g.P) }
	negC := new(big.Int).Neg(p.C)
	negC.Mod(negC, g.Q)
	t1 := g.Mul(pow(g1, p.Z), pow(a, negC))
	t2 := g.Mul(pow(g2, p.Z), pow(b, negC))
	return challenge(g, g1, g2, a, b, t1, t2).Cmp(p.C) == 0
}

// TestMatchesReference pins proofs and verdicts to the big.Int reference
// on every embedded group (with and without a Montgomery kernel), over
// honest proofs and a range of malformed ones.
func TestMatchesReference(t *testing.T) {
	for _, g := range group.All() {
		rng := rand.New(rand.NewSource(9))
		g2 := g.HashToGroup("ref", []byte(g.Name))
		x, _ := shamir.RandInt(rng, g.Q)
		a, b := g.ExpG(x), g.Exp(g2, x)
		p := prove(t, g, g.GTable(), tab(g, g2), a, b, x, rand.New(rand.NewSource(10)))
		ref := refProve(g, g.G, g2, a, b, x, rand.New(rand.NewSource(10)))
		if p.C.Cmp(ref.C) != 0 || p.Z.Cmp(ref.Z) != 0 {
			t.Fatalf("%s: proof differs from reference", g.Name)
		}
		huge := new(big.Int).Lsh(p.Z, 300)
		notInGroup := big.NewInt(2) // 2 generates more than the order-q subgroup
		for i, tc := range []struct {
			a, b *big.Int
			p    *Proof
		}{
			{a, b, p},
			{a, b, &Proof{C: p.C, Z: new(big.Int).Add(p.Z, g.Q)}}, // same residue, longer than the comb
			{a, b, &Proof{C: new(big.Int).Add(p.C, g.Q), Z: p.Z}},
			{a, b, &Proof{C: p.C, Z: huge}},
			{a, b, &Proof{C: new(big.Int).Neg(p.C), Z: new(big.Int).Neg(p.Z)}},
			{b, a, p},
			{a, notInGroup, p},
			{notInGroup, b, p},
			{a, new(big.Int).Add(b, g.P), p},
			{a, big.NewInt(0), p},
			{a, big.NewInt(1), p},
		} {
			got := Verify(g, g.GTable(), tab(g, g2), tab(g, tc.a), tc.b, tc.p) == nil
			if want := refVerify(g, g.G, g2, tc.a, tc.b, tc.p); got != want {
				t.Errorf("%s case %d: accepted = %v, reference says %v", g.Name, i, got, want)
			}
		}
	}
}

func TestProveVerify(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(1))
	x := big.NewInt(987654321)
	g1 := g.G
	g2 := g.HashToGroup("base2", []byte("msg"))
	a := g.Exp(g1, x)
	b := g.Exp(g2, x)
	p := prove(t, g, tab(g, g1), tab(g, g2), a, b, x, rng)
	if err := Verify(g, tab(g, g1), tab(g, g2), tab(g, a), b, p); err != nil {
		t.Errorf("honest proof rejected: %v", err)
	}
}

func TestVerifyRejectsWrongExponent(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(2))
	x := big.NewInt(111)
	y := big.NewInt(222)
	g1 := g.G
	g2 := g.HashToGroup("base2", []byte("m"))
	a := g.Exp(g1, x)
	b := g.Exp(g2, y) // different exponent!
	p := prove(t, g, tab(g, g1), tab(g, g2), a, b, x, rng)
	if err := Verify(g, tab(g, g1), tab(g, g2), tab(g, a), b, p); err == nil {
		t.Error("proof over unequal logs accepted")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(3))
	x := big.NewInt(777)
	g2 := g.HashToGroup("b", []byte("m"))
	a, b := g.ExpG(x), g.Exp(g2, x)
	p := prove(t, g, tab(g, g.G), tab(g, g2), a, b, x, rng)
	tampered := &Proof{C: new(big.Int).Add(p.C, big.NewInt(1)), Z: p.Z}
	if err := Verify(g, tab(g, g.G), tab(g, g2), tab(g, a), b, tampered); err == nil {
		t.Error("tampered challenge accepted")
	}
	tampered = &Proof{C: p.C, Z: new(big.Int).Add(p.Z, big.NewInt(1))}
	if err := Verify(g, tab(g, g.G), tab(g, g2), tab(g, a), b, tampered); err == nil {
		t.Error("tampered response accepted")
	}
}

func TestVerifyRejectsNonElements(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(4))
	x := big.NewInt(5)
	g2 := g.HashToGroup("b", []byte("m"))
	a, b := g.ExpG(x), g.Exp(g2, x)
	p := prove(t, g, tab(g, g.G), tab(g, g2), a, b, x, rng)
	if err := Verify(g, tab(g, g.G), tab(g, g2), tab(g, big.NewInt(0)), b, p); err == nil {
		t.Error("zero element accepted")
	}
	if err := Verify(g, tab(g, g.G), tab(g, g2), tab(g, a), b, nil); err == nil {
		t.Error("nil proof accepted")
	}
}

func TestProofBindsToBases(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(5))
	x := big.NewInt(31337)
	g2 := g.HashToGroup("b", []byte("m"))
	g3 := g.HashToGroup("b", []byte("other"))
	a, b := g.ExpG(x), g.Exp(g2, x)
	p := prove(t, g, tab(g, g.G), tab(g, g2), a, b, x, rng)
	// Same (a, b) against a different second base must fail.
	if err := Verify(g, tab(g, g.G), tab(g, g3), tab(g, a), b, p); err == nil {
		t.Error("proof transplanted to different base accepted")
	}
}
