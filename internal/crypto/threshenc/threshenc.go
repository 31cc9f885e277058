// Package threshenc implements hybrid threshold ElGamal encryption: a
// threshold KEM over a Schnorr group with AES-CTR payload encryption.
//
// HoneyBadgerBFT and BEAT threshold-encrypt each node's proposal so that
// the adversary cannot censor specific transactions before the set of
// accepted proposals is fixed; nodes exchange decryption shares after ACS
// completes. The paper implements the same primitive over MIRACL curves;
// see DESIGN.md for the substitution rationale.
//
// A ciphertext commits to its key: beside C1 it carries a digest of the
// KEM secret C1^z under its own domain, and its binding tag covers C1,
// that commitment and the body. The commitment is the encryptor's word,
// so a key that meets it is the ciphertext's key only if it is C1^z: a
// Byzantine encryptor can commit to any element, and one Byzantine share
// can steer k shares that include it to that element. Shares therefore
// count either verified, each by its DLEQ proof against the party's
// verification key (DecryptShare, VerifyShare, Combine), or bare and
// unverified (DecryptShareBare, CombineBare), C1^{z_i} alone, but then
// 2k−1 of them, all on one polynomial: at least k are honest, so they
// agree only on C1^z. Either way the key is C1^z, and whether it meets the
// commitment (ErrCommitment) is the same verdict at every honest party: a
// ciphertext whose commitment is not its key's has no plaintext. A bare
// share can be proved later (DecShare.Prove), for when bare shares
// disagree and must be sorted by their proofs.
//
// The key sharing, the decryption shares and their verification are the
// discrete-log threshold kernel's (dlthresh), with a ciphertext's C1 as
// the base; this package adds the ElGamal KEM, the AES body, the key
// commitment and the binding tag.
//
// A run decrypts through the key's ideal functionality (Ideal): shares
// are tags, a combination of issued ones gives the one key C1^z, and a
// ciphertext is opened once. The KEM digests lay C1 and the secret out on
// the stack and allocate nothing.
package threshenc

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
	"repro/internal/crypto/memo"
	"repro/internal/crypto/shamir"
)

// PublicKey encrypts and verifies decryption shares; its VK is the
// encryption key g^z.
type PublicKey struct {
	dlthresh.PublicKey
}

// PrivateShare is party i's decryption key share.
type PrivateShare = dlthresh.PrivateShare

// Ciphertext is a hybrid ElGamal ciphertext.
type Ciphertext struct {
	C1     *big.Int // g^r
	Commit [32]byte // key commitment: a digest of the KEM secret C1^z = VK^r
	Body   []byte   // AES-CTR(seed, plaintext)
	Tag    [32]byte // binding digest over (C1, Commit, Body)
}

// DecShare is one party's decryption share C1^{z_i}, with proof, or bare
// (DecryptShareBare) until its Prove.
type DecShare = dlthresh.Share

// ErrCommitment is the verdict of Combine on k verified shares, or of
// CombineBare, that the key they give is not the one the ciphertext
// commits to: the ciphertext was made under another key.
var ErrCommitment = errors.New("threshenc: combined key does not meet the ciphertext's commitment")

// Key is the dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
	// Ideal is the key's ideal functionality, which runs use.
	Ideal *Ideal
}

// Deal generates a (k, l) threshold encryption key.
func Deal(g *group.Group, k, l int, rand io.Reader) (*Key, error) {
	key, err := dlthresh.Deal(g, k, l, rand)
	if err != nil {
		return nil, err
	}
	pk := PublicKey{PublicKey: key.Public}
	out := &Key{Public: pk, Shares: key.Shares}
	out.Ideal = &Ideal{pk: &out.Public, dl: key.Ideal}
	return out, nil
}

// base names ct.C1. The caller has checked the tag, which binds C1, so
// the tag is the memo key.
func base(ct *Ciphertext) dlthresh.Base {
	return dlthresh.Base{Tag: ct.Tag[:], Element: func() *big.Int { return ct.C1 }}
}

// Encrypt produces a ciphertext decryptable by any k parties.
func (pk *PublicKey) Encrypt(plaintext []byte, rand io.Reader) (*Ciphertext, error) {
	ct, _, err := pk.encrypt(plaintext, rand)
	return ct, err
}

// encrypt is Encrypt, with the ciphertext's KEM secret VK^r = C1^z.
func (pk *PublicKey) encrypt(plaintext []byte, rand io.Reader) (*Ciphertext, *big.Int, error) {
	r, err := shamir.RandInt(rand, pk.Group.Q)
	if err != nil {
		return nil, nil, fmt.Errorf("threshenc: sampling nonce: %w", err)
	}
	c1 := pk.Group.ExpG(r)
	hr := pk.ExpVK(r)
	body := make([]byte, len(plaintext))
	xorStream(kdf(hr), plaintext, body)
	ct := &Ciphertext{C1: c1, Commit: commitment(hr), Body: body}
	ct.Tag = bindTag(ct)
	return ct, hr, nil
}

// DecryptShare produces party i's decryption share for ct.
func (pk *PublicKey) DecryptShare(priv PrivateShare, ct *Ciphertext, rand io.Reader) (*DecShare, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	return pk.PublicKey.Share(base(ct), priv, rand)
}

// DecryptShareBare produces party i's decryption share for ct without its
// proof, which the share's Prove makes later if it must: rand is read as
// by DecryptShare, and the proved share is the one DecryptShare makes.
func (pk *PublicKey) DecryptShareBare(priv PrivateShare, ct *Ciphertext, rand io.Reader) (*DecShare, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	return pk.PublicKey.ShareBare(base(ct), priv, rand)
}

// VerifyShare checks a decryption share against ct. The ciphertext's
// binding tag is always rechecked exactly (it is a cheap hash); the DLEQ
// proof verdict — the expensive part — is the kernel's, memoized per
// (tag, share), which is sound because a valid tag collision-resistantly
// binds (C1, Commit, Body).
func (pk *PublicKey) VerifyShare(ct *Ciphertext, sh *DecShare) error {
	if err := CheckCiphertext(ct); err != nil {
		return err
	}
	return pk.PublicKey.VerifyShare(base(ct), sh)
}

// Combine recovers the plaintext from k verified decryption shares and
// checks the key they interpolate to against the ciphertext's commitment
// (ErrCommitment).
func (pk *PublicKey) Combine(ct *Ciphertext, shares []*DecShare) ([]byte, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	hr, err := pk.PublicKey.Combine(shares)
	if err != nil {
		return nil, err
	}
	return open(ct, hr)
}

// CombineBare recovers the plaintext from BareQuorum unverified shares,
// 2k−1 of them: they must agree on one key (dlthresh.ErrInconsistent
// otherwise), and at least k of them are honest, so the key they agree on
// is the one k verified shares give, and its check against the commitment
// (ErrCommitment) is every honest party's verdict on the ciphertext.
func (pk *PublicKey) CombineBare(ct *Ciphertext, shares []*DecShare) ([]byte, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	hr, err := pk.PublicKey.CombineBare(shares)
	if err != nil {
		return nil, err
	}
	return open(ct, hr)
}

// open decrypts ct's body under the KEM secret hr, once hr meets the
// commitment.
func open(ct *Ciphertext, hr *big.Int) ([]byte, error) {
	if commitment(hr) != ct.Commit {
		return nil, ErrCommitment
	}
	out := make([]byte, len(ct.Body))
	xorStream(kdf(hr), ct.Body, out)
	return out, nil
}

// CiphertextOverhead returns the bytes a ciphertext over g adds to a
// plaintext: C1, the key commitment, the tag and the body length.
func CiphertextOverhead(g *group.Group) int { return g.ElementLen() + 32 + 32 + 4 }

// CheckCiphertext is the public validity predicate of a ciphertext: its
// binding tag must match (C1, Commit, Body). It needs no key, so whoever
// decodes a ciphertext off the wire can refuse an invalid one before any
// share of it is asked for: no honest party makes, verifies or combines
// shares of a ciphertext that fails it. Whether the commitment is the
// key's, no one can tell before k shares are combined (Combine).
func CheckCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.C1 == nil {
		return errors.New("threshenc: nil ciphertext")
	}
	if bindTag(ct) != ct.Tag {
		return errors.New("threshenc: ciphertext tag mismatch")
	}
	return nil
}

// maxElement bounds the bytes of a group element the KEM digests lay out
// on the stack: SG-3072's are 384. A longer C1 — a malformed one off the
// wire — takes the heap.
const maxElement = 512

// bindTag digests (C1, Commit, Body), C1 behind its length so that no
// other C1 and body can shift bytes between them under the same tag.
func bindTag(ct *Ciphertext) [32]byte {
	var stack [2 + maxElement]byte
	c1 := magnitude(stack[2:], ct.C1)
	binary.BigEndian.PutUint16(stack[:2], uint16(len(c1)))
	return digest("threshenc-tag", stack[:2], c1, ct.Commit[:], ct.Body)
}

func kdf(el *big.Int) [32]byte {
	var stack [maxElement]byte
	return digest("threshenc-kdf", magnitude(stack[:], el))
}

func commitment(el *big.Int) [32]byte {
	var stack [maxElement]byte
	return digest("threshenc-commit", magnitude(stack[:], el))
}

// magnitude returns |v|'s big-endian bytes, as v.Bytes gives them, laid
// out in stack when they fit.
func magnitude(stack []byte, v *big.Int) []byte {
	n := (v.BitLen() + 7) / 8
	if n > len(stack) {
		return v.Bytes()
	}
	return v.FillBytes(stack[:n])
}

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

// xorStream encrypts/decrypts src into dst with AES-CTR under seed: the
// key is seed's first half and the initial counter block its second, as
// cipher.NewCTR counts, with the key stream made block by block on the
// stack.
func xorStream(seed [32]byte, src, dst []byte) {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		panic(err) // 16-byte key is always valid
	}
	var ctr, stream [aes.BlockSize]byte
	copy(ctr[:], seed[16:])
	for at := 0; at < len(src); at += aes.BlockSize {
		block.Encrypt(stream[:], ctr[:])
		subtle.XORBytes(dst[at:], src[at:], stream[:])
		for i := len(ctr) - 1; i >= 0; i-- {
			if ctr[i]++; ctr[i] != 0 {
				break
			}
		}
	}
}

// Ideal is the key's ideal functionality (dlthresh.Ideal) with the key's
// decryption API: shares are issued and checked as tags, and a
// combination of issued shares gives the KEM secret C1^z, which is
// checked against the ciphertext's commitment and opens its body as a
// real combination's does. A combination of K verified shares that holds
// one that was not issued is refused with ErrCommitment, the verdict a
// real one reaches on the other element it interpolates. The ciphertext
// checks are the real key's, and so is Encrypt, whose bytes reach hashes.
// Every combination of a ciphertext's issued shares gives its one KEM
// secret, so the ideal key opens it once: the plaintext, or
// ErrCommitment, is memoized by its tag, and each caller gets its own
// copy of the plaintext.
type Ideal struct {
	pk     *PublicKey
	dl     *dlthresh.Ideal
	opened memo.Memo[[32]byte, opening]
}

// opening is a ciphertext's plaintext, or ErrCommitment.
type opening struct {
	plain []byte
	err   error
}

// open is open under the ciphertext's one KEM secret hr, memoized.
func (id *Ideal) open(ct *Ciphertext, hr *big.Int) ([]byte, error) {
	o, ok := id.opened.Peek(ct.Tag)
	if !ok {
		o = id.opened.Get(ct.Tag, func() opening {
			plain, err := open(ct, hr)
			return opening{plain, err}
		})
	}
	if o.err != nil {
		return nil, o.err
	}
	return bytes.Clone(o.plain), nil
}

// Encrypt is PublicKey.Encrypt, bit for bit, and records the ciphertext's
// KEM secret C1^z = VK^r as the element its shares combine to, which the
// combinations then find and do not raise C1 to the dealer's secret for.
func (id *Ideal) Encrypt(plaintext []byte, rand io.Reader) (*Ciphertext, error) {
	ct, hr, err := id.pk.encrypt(plaintext, rand)
	if err != nil {
		return nil, err
	}
	id.dl.Record(base(ct), hr)
	return ct, nil
}

// DecryptShareBare issues party i's bare share of ct, reading rand as
// PublicKey.DecryptShareBare does.
func (id *Ideal) DecryptShareBare(priv PrivateShare, ct *Ciphertext, rand io.Reader) (*DecShare, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	return id.dl.ShareBare(base(ct), priv, rand)
}

// VerifyShare checks a decryption share of ct.
func (id *Ideal) VerifyShare(ct *Ciphertext, sh *DecShare) error {
	if err := CheckCiphertext(ct); err != nil {
		return err
	}
	return id.dl.VerifyShare(base(ct), sh)
}

// Combine opens ct from k verified shares.
func (id *Ideal) Combine(ct *Ciphertext, shares []*DecShare) ([]byte, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	hr, err := id.dl.Combine(base(ct), shares)
	if errors.Is(err, dlthresh.ErrNotIssued) {
		return nil, ErrCommitment
	}
	if err != nil {
		return nil, err
	}
	return id.open(ct, hr)
}

// CombineBare opens ct from BareQuorum unverified shares.
func (id *Ideal) CombineBare(ct *Ciphertext, shares []*DecShare) ([]byte, error) {
	if err := CheckCiphertext(ct); err != nil {
		return nil, err
	}
	hr, err := id.dl.CombineBare(base(ct), shares)
	if err != nil {
		return nil, err
	}
	return id.open(ct, hr)
}
