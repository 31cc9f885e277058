package threshsig

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
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
}

// TestCombineMemo pins the host-time combine memo to what a fresh
// combination computes: a cached signature comes back only for shares all
// verified valid, bit-identical to combining another valid subset afresh;
// a subset holding a bad share still fails while the signature is cached;
// and a failed combination stores nothing.
func TestCombineMemo(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	uncached := *pk
	uncached.cc = nil
	msg := []byte("cbc echo quorum")
	digest := sha256.Sum256(msg)
	rng := rand.New(rand.NewSource(8))
	all := make([]*SigShare, 4)
	for i := range all {
		sh, err := pk.Sign(key.Shares[i], msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = sh
	}
	first := []*SigShare{all[0], all[1]}
	if _, hit := pk.combined(digest, first); hit {
		t.Fatal("memo hit before any combination")
	}
	sig, err := pk.Combine(msg, first)
	if err != nil {
		t.Fatal(err)
	}
	other := []*SigShare{all[2], all[3]}
	if _, hit := pk.combined(digest, other); hit {
		t.Error("memo hit for shares never verified")
	}
	for _, sh := range other {
		if err := pk.VerifyShare(msg, sh); err != nil {
			t.Fatal(err)
		}
	}
	memo, hit := pk.combined(digest, other)
	if !hit {
		t.Fatal("no memo hit for verified shares of a combined message")
	}
	fresh, err := uncached.Combine(msg, other)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pk.Combine(msg, other); err != nil || !bytes.Equal(got.Bytes(), fresh.Bytes()) ||
		!bytes.Equal(memo.Bytes(), sig.Bytes()) {
		t.Errorf("memoized combination %x (%v) differs from a fresh one %x", got.Bytes(), err, fresh.Bytes())
	}

	bad := &SigShare{Index: 4, X: new(big.Int).Add(all[3].X, big.NewInt(1)), C: all[3].C, Z: all[3].Z}
	if err := pk.VerifyShare(msg, bad); err == nil {
		t.Fatal("tampered share verified")
	}
	if _, err := pk.Combine(msg, []*SigShare{all[2], bad}); err == nil {
		t.Error("a subset holding a bad share combined while the signature was cached")
	}

	msg2 := []byte("never combined")
	good, err := pk.Sign(key.Shares[0], msg2, rng)
	if err != nil {
		t.Fatal(err)
	}
	garbage := &SigShare{Index: 2, X: big.NewInt(12345), C: big.NewInt(1), Z: big.NewInt(2)}
	if _, err := pk.Combine(msg2, []*SigShare{good, garbage}); err == nil {
		t.Fatal("combination with a garbage share succeeded")
	}
	if _, hit := pk.cc.sigs.Peek(sha256.Sum256(msg2)); hit {
		t.Error("a failed combination was stored")
	}
}
