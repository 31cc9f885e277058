package threshenc

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/shamir"
)

// TestDecryptionAllocations pins what decrypting a ciphertext allocates
// at SG-512, (k, l) = (2, 4):
//   - the KEM digests — bindTag, kdf and commitment — nothing: C1 and the
//     KEM secret are laid out on the stack;
//   - a second opening of a ciphertext from the same bare shares by the
//     key's ideal functionality, as a run's every party after the first
//     opens it: the element's copy and the plaintext's — at most 8.
func TestDecryptionAllocations(t *testing.T) {
	key := testKey(t, 2, 4)
	pk, id := &key.Public, key.Ideal
	rng := rand.New(rand.NewSource(12))
	plain := make([]byte, 256)
	ct, err := id.Encrypt(plain, rng)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]*DecShare, pk.BareQuorum())
	for i := range shares {
		if shares[i], err = id.DecryptShareBare(key.Shares[i], ct, rng); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := id.CombineBare(ct, shares); err != nil {
		t.Fatal(err)
	}
	hr, err := pk.PublicKey.CombineBare(bareShares(t, key, ct, rng)[:pk.BareQuorum()])
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"bindTag", 0, func() error { bindTag(ct); return nil }},
		{"kdf", 0, func() error { kdf(hr); return nil }},
		{"commitment", 0, func() error { commitment(hr); return nil }},
		{"second opening", 8, func() error {
			got, err := id.CombineBare(ct, shares)
			if err == nil && !bytes.Equal(got, plain) {
				err = errors.New("wrong plaintext")
			}
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if e := op.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if allocs > op.budget {
			t.Errorf("%s: %v allocations, budget %v", op.name, allocs, op.budget)
		}
	}
}

// TestOpeningsHitOnlyTheirKey: an opening serves a caller only under the
// KEM secret it combined, and each caller gets a plaintext of its own.
// Mirroring TestCombineBareResistsSteering, an honest opening of a
// ciphertext committed to a Byzantine encryptor's key X comes first
// (ErrCommitment); a Combine of shares steered to X then opens it under X
// itself, and the honest verdict stands after it. On an honest
// ciphertext, a caller that changes its plaintext does not change the
// next caller's.
func TestOpeningsHitOnlyTheirKey(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	g := pk.Group
	rng := rand.New(rand.NewSource(13))
	x := g.ExpG(big.NewInt(778))
	steeredPlain := []byte("steered plaintext"[:16])
	ct := &Ciphertext{C1: g.ExpG(big.NewInt(4243)), Commit: commitment(x), Body: make([]byte, 16)}
	xorStream(kdf(x), steeredPlain, ct.Body)
	ct.Tag = bindTag(ct)
	honest := bareShares(t, key, ct, rng)

	if got, err := pk.CombineBare(ct, honest[:3]); !errors.Is(err, ErrCommitment) {
		t.Fatalf("honest bare shares: %q, %v; want ErrCommitment", got, err)
	}
	lag := shamir.LagrangeSet([]shamir.Share{{X: 1}, {X: 2}}, g.Q)
	rest := g.Mul(x, g.Exp(honest[0].V, new(big.Int).Sub(g.Q, lag[0])))
	steered := &DecShare{Index: 2, V: g.Exp(rest, new(big.Int).ModInverse(lag[1], g.Q))}
	if got, err := pk.Combine(ct, []*DecShare{honest[0], steered}); err != nil || !bytes.Equal(got, steeredPlain) {
		t.Errorf("steered Combine after the honest opening: %q, %v; want its own opening", got, err)
	}
	for skip := range honest {
		set := append(append([]*DecShare{}, honest[:skip]...), honest[skip+1:]...)
		if got, err := pk.CombineBare(ct, set); !errors.Is(err, ErrCommitment) {
			t.Errorf("honest bare shares without party %d after the steered Combine: %q, %v; want ErrCommitment", skip+1, got, err)
		}
	}

	plain := []byte("every caller its own copy")
	good, err := pk.Encrypt(plain, rng)
	if err != nil {
		t.Fatal(err)
	}
	shares := bareShares(t, key, good, rng)
	first, err := pk.CombineBare(good, shares[:3])
	if err != nil || !bytes.Equal(first, plain) {
		t.Fatalf("honest ciphertext: %q, %v", first, err)
	}
	first[0] ^= 0xFF
	if again, err := pk.CombineBare(good, shares[1:]); err != nil || !bytes.Equal(again, plain) {
		t.Errorf("after a caller changed its plaintext, the next opening gives %q, %v", again, err)
	}
}
