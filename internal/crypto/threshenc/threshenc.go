// Package threshenc implements hybrid threshold ElGamal encryption: a
// threshold KEM over a Schnorr group with AES-CTR payload encryption.
//
// HoneyBadgerBFT and BEAT threshold-encrypt each node's proposal so that
// the adversary cannot censor specific transactions before the set of
// accepted proposals is fixed; nodes exchange decryption shares after ACS
// completes. Decryption shares carry DLEQ proofs so Byzantine shares are
// rejected. The paper implements the same primitive over MIRACL curves;
// see DESIGN.md for the substitution rationale.
//
// The key sharing, the decryption shares and their verification are the
// discrete-log threshold kernel's (dlthresh), with a ciphertext's C1 as
// the base; this package adds the ElGamal KEM, the AES body and the
// binding tag.
package threshenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
	"repro/internal/crypto/shamir"
)

// PublicKey encrypts and verifies decryption shares; its VK is the
// encryption key g^z.
type PublicKey struct{ dlthresh.PublicKey }

// PrivateShare is party i's decryption key share.
type PrivateShare = dlthresh.PrivateShare

// Ciphertext is a hybrid ElGamal ciphertext.
type Ciphertext struct {
	C1   *big.Int // g^r
	Body []byte   // AES-CTR(seed, plaintext)
	Tag  [32]byte // binding digest over (C1, Body)
}

// DecShare is one party's decryption share C1^{z_i}, with proof.
type DecShare = dlthresh.Share

// Key is the dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
}

// Deal generates a (k, l) threshold encryption key.
func Deal(g *group.Group, k, l int, rand io.Reader) (*Key, error) {
	key, err := dlthresh.Deal(g, k, l, rand)
	if err != nil {
		return nil, err
	}
	return &Key{Public: PublicKey{key.Public}, Shares: key.Shares}, nil
}

// base names ct.C1. The caller has checked the tag, which binds C1, so
// the tag is the memo key.
func base(ct *Ciphertext) dlthresh.Base {
	return dlthresh.Base{Tag: ct.Tag[:], Element: func() *big.Int { return ct.C1 }}
}

// Encrypt produces a ciphertext decryptable by any k parties.
func (pk *PublicKey) Encrypt(plaintext []byte, rand io.Reader) (*Ciphertext, error) {
	r, err := shamir.RandInt(rand, pk.Group.Q)
	if err != nil {
		return nil, fmt.Errorf("threshenc: sampling nonce: %w", err)
	}
	c1 := pk.Group.ExpG(r)
	seed := kdf(pk.ExpVK(r))
	body := make([]byte, len(plaintext))
	xorStream(seed, plaintext, body)
	ct := &Ciphertext{C1: c1, Body: body}
	ct.Tag = bindTag(ct)
	return ct, nil
}

// DecryptShare produces party i's decryption share for ct.
func (pk *PublicKey) DecryptShare(priv PrivateShare, ct *Ciphertext, rand io.Reader) (*DecShare, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	return pk.PublicKey.Share(base(ct), priv, rand)
}

// VerifyShare checks a decryption share against ct. The ciphertext's
// binding tag is always rechecked exactly (it is a cheap hash); the DLEQ
// proof verdict — the expensive part — is the kernel's, memoized per
// (tag, share), which is sound because a valid tag collision-resistantly
// binds (C1, Body).
func (pk *PublicKey) VerifyShare(ct *Ciphertext, sh *DecShare) error {
	if err := CheckCiphertext(ct); err != nil {
		return err
	}
	return pk.PublicKey.VerifyShare(base(ct), sh)
}

// Combine recovers the plaintext from k decryption shares.
func (pk *PublicKey) Combine(ct *Ciphertext, shares []*DecShare) ([]byte, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	hr, err := pk.PublicKey.Combine(shares)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(ct.Body))
	xorStream(kdf(hr), ct.Body, out)
	return out, nil
}

// CiphertextOverhead returns the bytes a ciphertext over g adds to a
// plaintext: C1, the tag and the body length.
func CiphertextOverhead(g *group.Group) int { return g.ElementLen() + 32 + 4 }

// CheckCiphertext is the public validity predicate of a ciphertext: its
// binding tag must match (C1, Body). It needs no key, so whoever decodes a
// ciphertext off the wire can refuse an invalid one before any share of it
// is asked for: no honest party makes, verifies or combines shares of a
// ciphertext that fails it.
func CheckCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.C1 == nil {
		return errors.New("threshenc: nil ciphertext")
	}
	if bindTag(ct) != ct.Tag {
		return errors.New("threshenc: ciphertext tag mismatch")
	}
	return nil
}

func bindTag(ct *Ciphertext) [32]byte { return digest("threshenc-tag", ct.C1.Bytes(), ct.Body) }

func kdf(el *big.Int) [32]byte { return digest("threshenc-kdf", el.Bytes()) }

func digest(domain string, parts ...[]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// xorStream encrypts/decrypts src into dst with AES-CTR under seed.
func xorStream(seed [32]byte, src, dst []byte) {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		panic(err) // 16-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	copy(iv[:], seed[16:])
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst, src)
}
