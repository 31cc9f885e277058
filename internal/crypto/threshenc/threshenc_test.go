package threshenc

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
	"repro/internal/crypto/shamir"
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
	if err := key.Public.VerifyShare(ct, sh); err != nil {
		t.Errorf("honest share rejected: %v", err)
	}
	// A tampered ciphertext fails every share, the memoized honest one
	// included: the tag is rechecked before the memo is consulted.
	tampered := &Ciphertext{C1: ct.C1, Commit: ct.Commit, Body: append([]byte(nil), ct.Body...), Tag: ct.Tag}
	tampered.Body[0] ^= 0xFF
	if err := key.Public.VerifyShare(tampered, sh); err == nil {
		t.Error("share accepted against a tampered ciphertext")
	}
	// So does one whose C1 was swapped under the old tag.
	swapped := &Ciphertext{C1: new(big.Int).Add(ct.C1, big.NewInt(1)), Commit: ct.Commit, Body: ct.Body, Tag: ct.Tag}
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

// TestCommitmentBoundByTag: the tag binds the key commitment, so a
// ciphertext whose commitment was rewritten fails CheckCiphertext, and no
// share of it is made or combined.
func TestCommitmentBoundByTag(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(8))
	ct, err := key.Public.Encrypt([]byte("committed"), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCiphertext(ct); err != nil {
		t.Fatalf("genuine ciphertext refused: %v", err)
	}
	shares := bareShares(t, key, ct, rng)
	ct.Commit[0] ^= 1
	if err := CheckCiphertext(ct); err == nil {
		t.Error("tampered commitment passed CheckCiphertext")
	}
	if _, err := key.Public.DecryptShareBare(key.Shares[0], ct, rng); err == nil {
		t.Error("DecryptShareBare made a share of a ciphertext with a tampered commitment")
	}
	if _, err := key.Public.Combine(ct, shares); err == nil {
		t.Error("Combine opened a ciphertext with a tampered commitment")
	}
}

// TestCombineChecksCommitment: Combine and CombineBare check the key
// their shares give against the commitment. Three bare shares of an honest
// ciphertext open it from any three parties; a bad bare share among them
// fails as inconsistent; verified shares, or bare ones, of a ciphertext
// made under another key (its tag holds, its commitment is not this
// key's) fail with ErrCommitment.
func TestCombineChecksCommitment(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(9))
	plain := []byte("bare shares, checked once")
	ct, err := key.Public.Encrypt(plain, rng)
	if err != nil {
		t.Fatal(err)
	}
	shares := bareShares(t, key, ct, rng)
	for skip := range shares {
		set := append(append([]*DecShare{}, shares[:skip]...), shares[skip+1:]...)
		got, err := key.Public.CombineBare(ct, set)
		if err != nil || !bytes.Equal(got, plain) {
			t.Errorf("all parties but %d: got %q, %v", skip+1, got, err)
		}
	}
	bad := &DecShare{Index: shares[1].Index, V: key.Public.Group.Mul(shares[1].V, key.Public.Group.G)}
	if _, err := key.Public.CombineBare(ct, []*DecShare{shares[0], bad, shares[2]}); !errors.Is(err, dlthresh.ErrInconsistent) {
		t.Errorf("a bad bare share combined with %v, want ErrInconsistent", err)
	}

	other, err := Deal(key.Public.Group, 2, 4, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Public.Encrypt(plain, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCiphertext(foreign); err != nil {
		t.Fatalf("a ciphertext under another key fails its tag: %v", err)
	}
	var verified []*DecShare
	for _, priv := range key.Shares[:2] {
		sh, err := key.Public.DecryptShare(priv, foreign, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := key.Public.VerifyShare(foreign, sh); err != nil {
			t.Fatalf("share %d of a foreign ciphertext rejected: %v", priv.Index, err)
		}
		verified = append(verified, sh)
	}
	if got, err := key.Public.Combine(foreign, verified); !errors.Is(err, ErrCommitment) {
		t.Errorf("verified shares opened a ciphertext under another key to %q, %v; want ErrCommitment", got, err)
	}
	if got, err := key.Public.CombineBare(foreign, bareShares(t, key, foreign, rng)[1:]); !errors.Is(err, ErrCommitment) {
		t.Errorf("bare shares opened a ciphertext under another key to %q, %v; want ErrCommitment", got, err)
	}
}

// TestCombineBareResistsSteering: a Byzantine encryptor commits to a key
// X of its choice and, as party 2, answers party 1's bare share with one
// that makes the pair interpolate to X. Two bare shares would open the
// ciphertext at party 1 alone; CombineBare, holding a third, honest share,
// refuses the set as inconsistent, and any three honest shares give every
// party the same verdict, ErrCommitment.
func TestCombineBareResistsSteering(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	g := pk.Group
	rng := rand.New(rand.NewSource(11))
	x := g.ExpG(big.NewInt(777))
	ct := &Ciphertext{C1: g.ExpG(big.NewInt(4242)), Commit: commitment(x), Body: make([]byte, 16)}
	xorStream(kdf(x), []byte("steered plaintext"[:16]), ct.Body)
	ct.Tag = bindTag(ct)
	honest := bareShares(t, key, ct, rng)

	lag := shamir.LagrangeSet([]shamir.Share{{X: 1}, {X: 2}}, g.Q)
	rest := g.Mul(x, g.Exp(honest[0].V, new(big.Int).Sub(g.Q, lag[0])))
	steered := &DecShare{Index: 2, V: g.Exp(rest, new(big.Int).ModInverse(lag[1], g.Q))}
	if got, err := pk.Combine(ct, []*DecShare{honest[0], steered}); err != nil || !bytes.Equal(got, []byte("steered plaintext"[:16])) {
		t.Fatalf("steering construction: %q, %v", got, err)
	}
	if _, err := pk.CombineBare(ct, []*DecShare{honest[0], steered, honest[2]}); !errors.Is(err, dlthresh.ErrInconsistent) {
		t.Errorf("steered share among bare ones: %v, want ErrInconsistent", err)
	}
	for skip := range honest {
		set := append(append([]*DecShare{}, honest[:skip]...), honest[skip+1:]...)
		if got, err := pk.CombineBare(ct, set); !errors.Is(err, ErrCommitment) {
			t.Errorf("honest bare shares without party %d: %q, %v; want ErrCommitment", skip+1, got, err)
		}
	}
}

func bareShares(t testing.TB, key *Key, ct *Ciphertext, rng *rand.Rand) []*DecShare {
	t.Helper()
	out := make([]*DecShare, len(key.Shares))
	for i, priv := range key.Shares {
		sh, err := key.Public.DecryptShareBare(priv, ct, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sh
	}
	return out
}

// BenchmarkDecryptBare measures what opening a ciphertext from bare shares
// costs a receiver at (2, 4): three bare shares checked to agree
// (dlthresh.CombineBare), combined, and the key they interpolate to
// checked against the commitment. Each iteration opens a ciphertext of its
// own, so the group's membership memo never serves it: the cost is one
// node's, not the share of it a simulation pays when every node combines
// the same key. Beside it stands the DLEQ verification each share cost
// before it could count (dlthresh.BenchmarkVerifyShare).
func BenchmarkDecryptBare(b *testing.B) {
	key := testKey(b, 2, 4)
	rng := rand.New(rand.NewSource(10))
	cts, sets := make([]*Ciphertext, b.N), make([][]*DecShare, b.N)
	for i := range cts {
		ct, err := key.Public.Encrypt(make([]byte, 256), rng)
		if err != nil {
			b.Fatal(err)
		}
		cts[i], sets[i] = ct, bareShares(b, key, ct, rng)[:3]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Public.CombineBare(cts[i], sets[i]); err != nil {
			b.Fatal(err)
		}
	}
}
