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
	bad := &DecShare{Index: sh.Index, D: new(big.Int).Add(sh.D, big.NewInt(1)), Proof: sh.Proof}
	if err := key.Public.VerifyShare(ct, bad); err == nil {
		t.Error("tampered decryption share accepted")
	}
	// A bad share slipped into Combine yields wrong plaintext; since the
	// protocol verifies shares first, we assert shares ARE distinguishable.
	if err := key.Public.VerifyShare(ct, sh); err != nil {
		t.Errorf("honest share rejected: %v", err)
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
