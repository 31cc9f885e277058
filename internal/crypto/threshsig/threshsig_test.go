package threshsig

import (
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

// TestCombineMemo pins the host-time answer memo to what a fresh
// combination computes: a repeated question — the message and the first k
// shares' indices and X, bare or proved — is answered from the memo with
// the plain key's signature bytes or error text; a share whose X has a
// good share's magnitude (negated) or its residue (plus N) is combined
// without the memo, so it gets the plain key's answer and leaves
// the memo as it was; and a caller that changes the signature it got
// changes no later answer.
func TestCombineMemo(t *testing.T) {
	key := testKey(t, 2, 4)
	pk, plain := &key.Public, slowKey(key.Public)
	msg := []byte("cbc echo quorum")
	all := bareShares(t, key, msg, 8)
	bad := &SigShare{Index: 4, X: new(big.Int).Add(all[3].X, one)}
	sets := [][]*SigShare{
		{all[0], all[1]},
		{all[1], all[0]},
		{all[2], all[3], all[0]}, // a spare share is not read
		{all[2], bad},
	}
	for pass := 0; pass < 2; pass++ {
		for i, set := range sets {
			if got, want := combineOutcome(pk, msg, set), combineOutcome(plain, msg, set); got != want {
				t.Errorf("pass %d, set %d: dealt key %s, plain key %s", pass, i, got, want)
			}
		}
	}
	if n := pk.cc.combos.Len(); n != len(sets) {
		t.Fatalf("memo holds %d answers for %d questions", n, len(sets))
	}
	neg := &SigShare{Index: all[1].Index, X: new(big.Int).Neg(all[1].X)}
	if comboKey(sha256.Sum256(msg), []*SigShare{all[0], neg}) != comboKey(sha256.Sum256(msg), sets[0]) {
		t.Fatal("a negated share has its own memo key: the test no longer tests the memo")
	}
	wrapped := &SigShare{Index: all[1].Index, X: new(big.Int).Add(all[1].X, pk.N)}
	for _, sh := range []*SigShare{neg, wrapped} {
		set := []*SigShare{all[0], sh}
		if got, want := combineOutcome(pk, msg, set), combineOutcome(plain, msg, set); got != want {
			t.Errorf("X %v outside (0, N): dealt key %s, plain key %s", sh.X.Sign(), got, want)
		}
	}
	if n := pk.cc.combos.Len(); n != len(sets) {
		t.Errorf("memo holds %d answers after shares outside (0, N), want %d", n, len(sets))
	}
	sig, err := pk.Combine(msg, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Set(sig.S)
	sig.S.SetInt64(1)
	if again, err := pk.Combine(msg, sets[0]); err != nil || again.S.Cmp(want) != 0 {
		t.Errorf("a caller's change to its signature reached the memo: %v", err)
	}
}
