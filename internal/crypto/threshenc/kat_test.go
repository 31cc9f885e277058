package threshenc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/crypto/group"
	"repro/internal/crypto/threshenc"
)

// TestKnownAnswers pins the dealer's, the encryptor's and the prover's
// randomness order and every byte threshold encryption puts on the air,
// per group: the vectors were recorded before the share path moved onto
// the discrete-log kernel and must never change with a refactor. The
// ciphertext's were recorded again, once, when it gained its key
// commitment; the shares' did not move.
func TestKnownAnswers(t *testing.T) {
	want := map[string][3]string{ // verification keys, ciphertext wire bytes, the four shares' wire bytes
		"SG-512": {"4cfc1974e6d9ca15459ab93a80527e8965ba91b1afa24bfe77fd2a586824f753", "531bdc53ee3c9ea4d7e0a90210ab13b3687ff30bac33943961a5b7b534052e61", "7a602deeb0b29f950ac778c35f989abb60254c068adeb62d8e46023d42448b02"},
		"SG-768": {"82b012f50b71447d00256bfca78b52605e4a62e419eb61f67bbf21697f208c1b", "2be79309fe692d3c01b1ed3154f10b50e724a9a35cd856bac1990dbd6fe74ff6", "c3349afc2cf2baa9f018943f307c4b7fadbeb5bbfbffb22ded8f382fdbbeee35"},
	}
	plain := []byte("kat/plaintext: tx1;tx2;tx3")
	for _, g := range group.All()[:2] {
		key, err := threshenc.Deal(g, 2, 4, rand.New(rand.NewSource(0x5eed)))
		if err != nil {
			t.Fatal(err)
		}
		keys := sha256.New()
		for _, vk := range key.Public.VKs {
			keys.Write(vk.Bytes())
		}
		rng := rand.New(rand.NewSource(7))
		ct, err := key.Public.Encrypt(plain, rng)
		if err != nil {
			t.Fatal(err)
		}
		// The ciphertext depends on the master public key g^z, which the
		// verification keys alone do not pin.
		ctWire := sha256.Sum256(component.EncodeCiphertext(g, ct))
		wire := sha256.New()
		shares := make([]*threshenc.DecShare, 4)
		for i := range shares {
			if shares[i], err = key.Public.DecryptShare(key.Shares[i], ct, rng); err != nil {
				t.Fatal(err)
			}
			if err := key.Public.VerifyShare(ct, shares[i]); err != nil {
				t.Fatalf("%s: share %d rejected: %v", g.Name, i+1, err)
			}
			wire.Write(component.EncodeDLShare(g, shares[i]))
		}
		got, err := key.Public.Combine(ct, []*threshenc.DecShare{shares[3], shares[1]})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(plain) {
			t.Errorf("%s: decrypted %q, want %q", g.Name, got, plain)
		}
		vec := [3]string{hex.EncodeToString(keys.Sum(nil)), hex.EncodeToString(ctWire[:]), hex.EncodeToString(wire.Sum(nil))}
		if vec != want[g.Name] {
			t.Errorf("%s:\n got  %q\n want %q", g.Name, vec, want[g.Name])
		}
	}
}
