package group

import (
	"math/big"
	"testing"
)

func TestFixturesWellFormed(t *testing.T) {
	sets := All()
	if len(sets) != 6 {
		t.Fatalf("embedded %d groups, want 6", len(sets))
	}
	prevBits := 0
	for _, g := range sets {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			if g.P.BitLen() != g.Bits {
				t.Errorf("P has %d bits, want %d", g.P.BitLen(), g.Bits)
			}
			if g.Q.BitLen() != 256 {
				t.Errorf("Q has %d bits, want 256", g.Q.BitLen())
			}
			if !g.P.ProbablyPrime(16) {
				t.Error("P not prime")
			}
			if !g.Q.ProbablyPrime(16) {
				t.Error("Q not prime")
			}
			// Q divides P-1.
			rem := new(big.Int).Mod(new(big.Int).Sub(g.P, big.NewInt(1)), g.Q)
			if rem.Sign() != 0 {
				t.Error("Q does not divide P-1")
			}
			// G has order Q: g^Q == 1 and g != 1.
			if g.G.Cmp(big.NewInt(1)) == 0 {
				t.Error("G is identity")
			}
			if g.Exp(g.G, g.Q).Cmp(big.NewInt(1)) != 0 {
				t.Error("G^Q != 1")
			}
		})
		if g.Bits <= prevBits {
			t.Errorf("groups not in ascending size: %d after %d", g.Bits, prevBits)
		}
		prevBits = g.Bits
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("SG-1024")
	if err != nil {
		t.Fatal(err)
	}
	if g.Bits != 1024 {
		t.Errorf("Bits = %d", g.Bits)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestHashToGroupInSubgroup(t *testing.T) {
	g := Default()
	for _, msg := range []string{"", "a", "hello world", "coin:epoch=3:round=1"} {
		el := g.HashToGroup("test", []byte(msg))
		if !g.IsElement(el) {
			t.Errorf("HashToGroup(%q) not a subgroup element", msg)
		}
	}
}

func TestHashToGroupDistinct(t *testing.T) {
	g := Default()
	a := g.HashToGroup("test", []byte("m1"))
	b := g.HashToGroup("test", []byte("m2"))
	c := g.HashToGroup("other", []byte("m1"))
	if a.Cmp(b) == 0 || a.Cmp(c) == 0 {
		t.Error("hash collisions across messages/domains")
	}
	a2 := g.HashToGroup("test", []byte("m1"))
	if a.Cmp(a2) != 0 {
		t.Error("HashToGroup not deterministic")
	}
}

func TestHashToScalarRange(t *testing.T) {
	g := Default()
	s := g.HashToScalar("d", []byte("x"), []byte("y"))
	if s.Sign() < 0 || s.Cmp(g.Q) >= 0 {
		t.Errorf("scalar %v out of range", s)
	}
	// Length-prefixed: ("ab","c") must differ from ("a","bc").
	s1 := g.HashToScalar("d", []byte("ab"), []byte("c"))
	s2 := g.HashToScalar("d", []byte("a"), []byte("bc"))
	if s1.Cmp(s2) == 0 {
		t.Error("scalar hash is concatenation-ambiguous")
	}
}

func TestIsElementRejectsJunk(t *testing.T) {
	g := Default()
	cases := []*big.Int{
		nil,
		big.NewInt(0),
		new(big.Int).Neg(big.NewInt(5)),
		new(big.Int).Set(g.P),
		new(big.Int).Add(g.P, big.NewInt(1)),
	}
	for i, v := range cases {
		if g.IsElement(v) {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestExpIdentities(t *testing.T) {
	g := Default()
	x := big.NewInt(12345)
	gx := g.ExpG(x)
	if !g.IsElement(gx) {
		t.Fatal("g^x not in subgroup")
	}
	// g^(q-x) * g^x == 1
	inv := g.ExpG(new(big.Int).Sub(g.Q, x))
	if g.Mul(inv, gx).Cmp(big.NewInt(1)) != 0 {
		t.Error("inverse identity failed")
	}
	// g^(x+y) = g^x * g^y
	y := big.NewInt(54321)
	lhs := g.ExpG(new(big.Int).Add(x, y))
	rhs := g.Mul(g.ExpG(x), g.ExpG(y))
	if lhs.Cmp(rhs) != 0 {
		t.Error("homomorphism failed")
	}
}
