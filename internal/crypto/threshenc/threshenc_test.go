package threshenc

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/group"
)

func testKey(t testing.TB, k, l int) *Key {
	t.Helper()
	key, err := Deal(group.Default(), k, l, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(1))
	plaintext := []byte("tx1;tx2;tx3 - a batch of transactions for epoch 7")
	ct, err := key.Public.Encrypt(plaintext, rng)
	if err != nil {
		t.Fatal(err)
	}
	var shares []*DecShare
	for i := 0; i < 2; i++ {
		sh, err := key.Public.DecryptShare(key.Shares[i], ct, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := key.Public.VerifyShare(ct, sh); err != nil {
			t.Fatalf("honest share %d rejected: %v", i, err)
		}
		shares = append(shares, sh)
	}
	got, err := key.Public.Combine(ct, shares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Errorf("decrypted %q, want %q", got, plaintext)
	}
}

func TestDifferentQuorumsSamePlaintext(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(2))
	plaintext := []byte("quorum independence")
	ct, err := key.Public.Encrypt(plaintext, rng)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]*DecShare, 4)
	for i := range all {
		sh, err := key.Public.DecryptShare(key.Shares[i], ct, rng)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = sh
	}
	a, err := key.Public.Combine(ct, []*DecShare{all[0], all[3]})
	if err != nil {
		t.Fatal(err)
	}
	b, err := key.Public.Combine(ct, []*DecShare{all[2], all[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !bytes.Equal(a, plaintext) {
		t.Error("quorum-dependent decryption")
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(3))
	plaintext := []byte("secret payload secret payload")
	ct, err := key.Public.Encrypt(plaintext, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct.Body, plaintext[:8]) {
		t.Error("ciphertext leaks plaintext prefix")
	}
	// Same plaintext encrypted twice differs (fresh nonce).
	ct2, err := key.Public.Encrypt(plaintext, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct.Body, ct2.Body) {
		t.Error("deterministic encryption across calls")
	}
}

func TestTamperedCiphertextRejected(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(4))
	ct, err := key.Public.Encrypt([]byte("data"), rng)
	if err != nil {
		t.Fatal(err)
	}
	ct.Body[0] ^= 0xFF
	if _, err := key.Public.DecryptShare(key.Shares[0], ct, rng); err == nil {
		t.Error("tampered ciphertext accepted by DecryptShare")
	}
	if _, err := key.Public.Combine(ct, nil); err == nil {
		t.Error("tampered ciphertext accepted by Combine")
	}
}

func TestShareVerificationRejectsByzantine(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(5))
	ct, err := key.Public.Encrypt([]byte("data"), rng)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := key.Public.DecryptShare(key.Shares[0], ct, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := &DecShare{Index: sh.Index, V: new(big.Int).Add(sh.V, big.NewInt(1)), Proof: sh.Proof}
	if err := key.Public.VerifyShare(ct, bad); err == nil {
		t.Error("tampered decryption share accepted")
	}
	if err := key.Public.VerifyShare(ct, &DecShare{Index: 2, V: sh.V, Proof: sh.Proof}); err == nil {
		t.Error("share accepted under wrong index")
	}
	if err := key.Public.VerifyShare(ct, &DecShare{Index: sh.Index, V: sh.V}); err == nil {
		t.Error("share without a proof accepted")
	}
	// A bad share slipped into Combine yields wrong plaintext; since the
	// protocol verifies shares first, we assert shares ARE distinguishable.
	if err := key.Public.VerifyShare(ct, sh); err != nil {
		t.Errorf("honest share rejected: %v", err)
	}
	// A tampered ciphertext fails every share, the memoized honest one
	// included: the tag is rechecked before the memo is consulted.
	tampered := &Ciphertext{C1: ct.C1, Body: append([]byte(nil), ct.Body...), Tag: ct.Tag}
	tampered.Body[0] ^= 0xFF
	if err := key.Public.VerifyShare(tampered, sh); err == nil {
		t.Error("share accepted against a tampered ciphertext")
	}
	// So does one whose C1 was swapped under the old tag.
	swapped := &Ciphertext{C1: new(big.Int).Add(ct.C1, big.NewInt(1)), Body: ct.Body, Tag: ct.Tag}
	if err := key.Public.VerifyShare(swapped, sh); err == nil {
		t.Error("share accepted against a ciphertext whose C1 the tag does not bind")
	}
}

func TestCombineErrors(t *testing.T) {
	key := testKey(t, 3, 4)
	rng := rand.New(rand.NewSource(6))
	ct, err := key.Public.Encrypt([]byte("data"), rng)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := key.Public.DecryptShare(key.Shares[0], ct, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := key.Public.Combine(ct, []*DecShare{sh}); err == nil {
		t.Error("too few shares accepted")
	}
	if _, err := key.Public.Combine(ct, []*DecShare{sh, sh, sh}); err == nil {
		t.Error("duplicate shares accepted")
	}
}

func TestEmptyPlaintext(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(7))
	ct, err := key.Public.Encrypt(nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	var shares []*DecShare
	for i := 0; i < 2; i++ {
		sh, err := key.Public.DecryptShare(key.Shares[i], ct, rng)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	got, err := key.Public.Combine(ct, shares)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty plaintext round-trip produced %d bytes", len(got))
	}
}
