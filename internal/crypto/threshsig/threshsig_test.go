package threshsig

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

func testKey(t testing.TB, k, l int) *Key {
	t.Helper()
	// TS-512 is the fastest fixture; the fixed seed keeps keys reproducible.
	fix, err := FixtureByName("TS-512")
	if err != nil {
		t.Fatal(err)
	}
	key, err := Deal(fix.Name, fix.P, fix.Q, k, l, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestFixturesPresent(t *testing.T) {
	fixes := Fixtures()
	if len(fixes) != 6 {
		t.Fatalf("got %d fixtures, want 6", len(fixes))
	}
	prev := 0
	for _, f := range fixes {
		n := new(big.Int).Mul(f.P, f.Q)
		if n.BitLen() != f.Bits {
			t.Errorf("%s: modulus %d bits, want %d", f.Name, n.BitLen(), f.Bits)
		}
		if f.Bits <= prev {
			t.Errorf("fixtures not ascending at %s", f.Name)
		}
		prev = f.Bits
		if !f.P.ProbablyPrime(16) || !f.Q.ProbablyPrime(16) {
			t.Errorf("%s: non-prime fixture", f.Name)
		}
	}
	if _, err := FixtureByName("TS-512"); err != nil {
		t.Error(err)
	}
	if _, err := FixtureByName("bogus"); err == nil {
		t.Error("unknown fixture accepted")
	}
}

func TestSignCombineVerify(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("prbc done: instance 3")
	rng := rand.New(rand.NewSource(1))
	var shares []*SigShare
	for i := 0; i < 2; i++ {
		sh, err := key.Public.Sign(key.Shares[i], msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := key.Public.VerifyShare(msg, sh); err != nil {
			t.Fatalf("honest share %d rejected: %v", i, err)
		}
		shares = append(shares, sh)
	}
	sig, err := key.Public.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.Verify(msg, sig); err != nil {
		t.Errorf("combined signature rejected: %v", err)
	}
	if err := key.Public.Verify([]byte("other message"), sig); err == nil {
		t.Error("signature verified against wrong message")
	}
}

func TestAnyQuorumSameSignature(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("uniqueness")
	rng := rand.New(rand.NewSource(2))
	all := make([]*SigShare, 4)
	for i := range all {
		sh, err := key.Public.Sign(key.Shares[i], msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = sh
	}
	sigA, err := key.Public.Combine(msg, []*SigShare{all[0], all[1]})
	if err != nil {
		t.Fatal(err)
	}
	sigB, err := key.Public.Combine(msg, []*SigShare{all[2], all[3]})
	if err != nil {
		t.Fatal(err)
	}
	if sigA.S.Cmp(sigB.S) != 0 {
		t.Error("different quorums produced different signatures (RSA threshold sigs are unique)")
	}
}

func TestVerifyShareRejectsForgery(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("m")
	rng := rand.New(rand.NewSource(3))
	sh, err := key.Public.Sign(key.Shares[0], msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := &SigShare{Index: sh.Index, X: new(big.Int).Add(sh.X, big.NewInt(1)), C: sh.C, Z: sh.Z}
	if err := key.Public.VerifyShare(msg, bad); err == nil {
		t.Error("tampered share value accepted")
	}
	// Share transplanted to another index.
	bad = &SigShare{Index: 2, X: sh.X, C: sh.C, Z: sh.Z}
	if err := key.Public.VerifyShare(msg, bad); err == nil {
		t.Error("share accepted under wrong index")
	}
	// Share for a different message.
	if err := key.Public.VerifyShare([]byte("m2"), sh); err != nil {
		// expected: proof binds message
	} else {
		t.Error("share accepted for wrong message")
	}
}

func TestCombineRejectsGarbageShare(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("m")
	rng := rand.New(rand.NewSource(4))
	good, err := key.Public.Sign(key.Shares[0], msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	garbage := &SigShare{Index: 2, X: big.NewInt(12345), C: big.NewInt(1), Z: big.NewInt(2)}
	if _, err := key.Public.Combine(msg, []*SigShare{good, garbage}); err == nil {
		t.Error("combination with garbage share succeeded")
	}
}

func TestCombineErrors(t *testing.T) {
	key := testKey(t, 3, 4)
	msg := []byte("m")
	rng := rand.New(rand.NewSource(5))
	sh, err := key.Public.Sign(key.Shares[0], msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := key.Public.Combine(msg, []*SigShare{sh}); err == nil {
		t.Error("too few shares accepted")
	}
	if _, err := key.Public.Combine(msg, []*SigShare{sh, sh, sh}); err == nil {
		t.Error("duplicate shares accepted")
	}
}

func TestHigherThreshold(t *testing.T) {
	key := testKey(t, 3, 4) // 2f+1 of N=4
	msg := []byte("cbc quorum")
	rng := rand.New(rand.NewSource(6))
	var shares []*SigShare
	for i := 0; i < 3; i++ {
		sh, err := key.Public.Sign(key.Shares[i+1], msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := key.Public.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.Verify(msg, sig); err != nil {
		t.Error(err)
	}
}

func TestSizesMonotone(t *testing.T) {
	prevSig := 0
	for _, fix := range Fixtures() {
		key, err := Deal(fix.Name, fix.P, fix.Q, 2, 4, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if s := key.Public.SignatureLen(); s <= prevSig {
			t.Errorf("%s: signature size %d not increasing", fix.Name, s)
		} else {
			prevSig = s
		}
	}
}

func TestDealValidation(t *testing.T) {
	fix := Fixtures()[0]
	rng := rand.New(rand.NewSource(1))
	if _, err := Deal(fix.Name, fix.P, fix.Q, 0, 4, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Deal(fix.Name, fix.P, fix.Q, 5, 4, rng); err == nil {
		t.Error("k>l accepted")
	}
	// e = 65537 divides 4*(l!)^2 from l = 65537 on: Combine could not
	// invert the exponent (the check costs about half a second here).
	if _, err := Deal(fix.Name, fix.P, fix.Q, 1, 65537, rng); err == nil || !strings.Contains(err.Error(), "not coprime") {
		t.Errorf("l=65537: Deal = %v, want a not-coprime error", err)
	}
}
