// Package threshenc implements hybrid threshold ElGamal encryption: a
// threshold KEM over a Schnorr group with AES-CTR payload encryption.
//
// HoneyBadgerBFT and BEAT threshold-encrypt each node's proposal so that
// the adversary cannot censor specific transactions before the set of
// accepted proposals is fixed; nodes exchange decryption shares after ACS
// completes. Decryption shares carry DLEQ proofs so Byzantine shares are
// rejected. The paper implements the same primitive over MIRACL curves;
// see DESIGN.md for the substitution rationale.
package threshenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/shamir"
)

// PublicKey encrypts and verifies decryption shares.
type PublicKey struct {
	Group *group.Group
	H     *big.Int   // g^z
	VKs   []*big.Int // g^{z_i}
	K     int
	L     int

	// cc is attached by Deal: the comb tables of the key's fixed bases
	// and of each ciphertext's C1, and memoized decryption-share
	// verdicts. Every party verifies every other party's share of each
	// ciphertext, and a verdict — like a power — is a pure function of
	// public inputs, so hits are exact; keys built without Deal run
	// the same code on throwaway tables. Guarded: dealt keys are shared
	// across concurrent simulations.
	cc *teCache
}

type teCache struct {
	h   *mont.Table   // comb of H, built on the first Encrypt
	vks []*mont.Table // combs of the VKs, each built on its first verification

	mu       sync.Mutex
	verified map[[32]byte]error
	// c1s holds the comb of each live ciphertext's C1, keyed by Tag: one
	// C1 is raised to about twelve exponents (every party's share and
	// proof nonce, every share's verification).
	c1s map[[32]byte]*mont.Table
}

// cacheCap bounds each memo map; overflow clears the map (a safety
// valve — a sweep cell's working set is far smaller).
const cacheCap = 4096

// PrivateShare is party i's decryption key share.
type PrivateShare struct {
	Index int
	Z     *big.Int
}

// Ciphertext is a hybrid ElGamal ciphertext.
type Ciphertext struct {
	C1   *big.Int // g^r
	Body []byte   // AES-CTR(seed, plaintext)
	Tag  [32]byte // binding digest over (C1, Body)
}

// DecShare is one party's decryption share with proof.
type DecShare struct {
	Index int
	D     *big.Int // C1^{z_i}
	Proof *dleq.Proof
}

// Key is the dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
}

// Deal generates a (k, l) threshold encryption key.
func Deal(g *group.Group, k, l int, rand io.Reader) (*Key, error) {
	z, err := shamir.RandInt(rand, g.Q)
	if err != nil {
		return nil, fmt.Errorf("threshenc: sampling secret: %w", err)
	}
	shares, err := shamir.Deal(z, k, l, g.Q, rand)
	if err != nil {
		return nil, err
	}
	priv := make([]PrivateShare, l)
	vks := make([]*big.Int, l)
	for i, sh := range shares {
		priv[i] = PrivateShare{Index: sh.X, Z: sh.Y}
		vks[i] = g.ExpG(sh.Y)
	}
	pk := PublicKey{Group: g, H: g.ExpG(z), VKs: vks, K: k, L: l}
	pk.cc = &teCache{
		h:        g.Table(pk.H, mont.TeethLong),
		vks:      make([]*mont.Table, l),
		verified: make(map[[32]byte]error),
		c1s:      make(map[[32]byte]*mont.Table),
	}
	for i, vk := range vks {
		pk.cc.vks[i] = g.Table(vk, mont.TeethLong)
	}
	return &Key{Public: pk, Shares: priv}, nil
}

// hTable returns the comb of H.
func (pk *PublicKey) hTable() *mont.Table {
	if pk.cc == nil {
		return pk.Group.Table(pk.H, mont.TeethShort)
	}
	return pk.cc.h
}

// vkTable returns the comb of party index's verification key.
func (pk *PublicKey) vkTable(index int) *mont.Table {
	if pk.cc == nil {
		return pk.Group.Table(pk.VKs[index-1], mont.TeethShort)
	}
	return pk.cc.vks[index-1]
}

// c1Table returns the comb of ct.C1, shared by everyone who touches ct.
// The caller has checked the tag, which binds C1, so the tag is the key.
// Safe under concurrent misses: one table wins.
func (pk *PublicKey) c1Table(ct *Ciphertext) *mont.Table {
	if pk.cc == nil {
		return pk.Group.Table(ct.C1, mont.TeethShort)
	}
	pk.cc.mu.Lock()
	defer pk.cc.mu.Unlock()
	t := pk.cc.c1s[ct.Tag]
	if t == nil {
		if len(pk.cc.c1s) >= cacheCap {
			clear(pk.cc.c1s)
		}
		t = pk.Group.Table(ct.C1, mont.TeethShort)
		pk.cc.c1s[ct.Tag] = t
	}
	return t
}

// Encrypt produces a ciphertext decryptable by any k parties.
func (pk *PublicKey) Encrypt(plaintext []byte, rand io.Reader) (*Ciphertext, error) {
	r, err := shamir.RandInt(rand, pk.Group.Q)
	if err != nil {
		return nil, fmt.Errorf("threshenc: sampling nonce: %w", err)
	}
	c1 := pk.Group.ExpG(r)
	seed := kdf(pk.hTable().Exp(r))
	body := make([]byte, len(plaintext))
	xorStream(seed, plaintext, body)
	ct := &Ciphertext{C1: c1, Body: body}
	ct.Tag = bindTag(ct)
	return ct, nil
}

// DecryptShare produces party i's decryption share for ct.
func (pk *PublicKey) DecryptShare(priv PrivateShare, ct *Ciphertext, rand io.Reader) (*DecShare, error) {
	if err := checkCiphertext(ct); err != nil {
		return nil, err
	}
	c1 := pk.c1Table(ct)
	d := c1.Exp(priv.Z)
	proof, err := dleq.Prove(pk.Group, pk.Group.GTable(), c1, pk.VKs[priv.Index-1], d, priv.Z, rand)
	if err != nil {
		return nil, fmt.Errorf("threshenc: proving share: %w", err)
	}
	return &DecShare{Index: priv.Index, D: d, Proof: proof}, nil
}

// VerifyShare checks a decryption share against ct. The ciphertext's
// binding tag is always rechecked exactly (it is a cheap hash); the DLEQ
// proof verdict — the expensive part — is memoized per (ciphertext,
// share), which is sound because a valid tag collision-resistantly binds
// (C1, Body), so the key below pins every input the proof check reads.
func (pk *PublicKey) VerifyShare(ct *Ciphertext, sh *DecShare) error {
	if sh == nil || sh.Index < 1 || sh.Index > pk.L {
		return errors.New("threshenc: bad share index")
	}
	if sh.D == nil || sh.Proof == nil || sh.Proof.C == nil || sh.Proof.Z == nil {
		return errors.New("threshenc: missing share material")
	}
	if err := checkCiphertext(ct); err != nil {
		return err
	}
	verify := func() error {
		return dleq.Verify(pk.Group, pk.Group.GTable(), pk.c1Table(ct), pk.vkTable(sh.Index), sh.D, sh.Proof)
	}
	if pk.cc == nil {
		return verify()
	}
	key := decShareKey(ct, sh)
	pk.cc.mu.Lock()
	verdict, hit := pk.cc.verified[key]
	pk.cc.mu.Unlock()
	if hit {
		return verdict
	}
	err := verify()
	pk.cc.mu.Lock()
	if len(pk.cc.verified) >= cacheCap {
		clear(pk.cc.verified)
	}
	pk.cc.verified[key] = err
	pk.cc.mu.Unlock()
	return err
}

// VerifyShares checks a batch of decryption shares of one ciphertext,
// returning one verdict per share in order. The ciphertext tag is checked
// once for the batch; each share's proof is still checked individually
// and exactly (see dleq.VerifyBatch), so a batch rejects precisely the
// shares per-share verification rejects.
func (pk *PublicKey) VerifyShares(ct *Ciphertext, shares []*DecShare) []error {
	errs := make([]error, len(shares))
	if err := checkCiphertext(ct); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, sh := range shares {
		errs[i] = pk.VerifyShare(ct, sh)
	}
	return errs
}

// decShareKey digests a (ciphertext, share) pair for the verdict memo.
// The tag covers (C1, Body); the share fields cover everything else the
// proof check reads.
func decShareKey(ct *Ciphertext, sh *DecShare) [32]byte {
	h := sha256.New()
	h.Write(ct.Tag[:])
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(sh.Index))
	h.Write(lb[:])
	for _, v := range []*big.Int{sh.D, sh.Proof.C, sh.Proof.Z} {
		b := v.Bytes()
		binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
		h.Write(lb[:])
		h.Write(b)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Combine recovers the plaintext from k decryption shares.
func (pk *PublicKey) Combine(ct *Ciphertext, shares []*DecShare) ([]byte, error) {
	if err := checkCiphertext(ct); err != nil {
		return nil, err
	}
	if len(shares) < pk.K {
		return nil, fmt.Errorf("threshenc: need %d shares, have %d", pk.K, len(shares))
	}
	use := shares[:pk.K]
	pts := make([]shamir.Share, pk.K)
	seen := make(map[int]bool, pk.K)
	for i, sh := range use {
		if seen[sh.Index] {
			return nil, fmt.Errorf("threshenc: duplicate share %d", sh.Index)
		}
		seen[sh.Index] = true
		pts[i] = shamir.Share{X: sh.Index}
	}
	lams := shamir.LagrangeSet(pts, pk.Group.Q)
	ds := make([]*big.Int, pk.K)
	for i, sh := range use {
		ds[i] = sh.D
	}
	hr := pk.Group.MulExp(ds, lams)
	out := make([]byte, len(ct.Body))
	xorStream(kdf(hr), ct.Body, out)
	return out, nil
}

// CiphertextOverhead returns the bytes a ciphertext adds to a plaintext.
func (pk *PublicKey) CiphertextOverhead() int { return pk.Group.ElementLen() + 32 + 4 }

// ShareLen returns the approximate serialized decryption-share size.
func (pk *PublicKey) ShareLen() int {
	return pk.Group.ElementLen() + dleq.Size(pk.Group) + 2
}

func checkCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.C1 == nil {
		return errors.New("threshenc: nil ciphertext")
	}
	if bindTag(ct) != ct.Tag {
		return errors.New("threshenc: ciphertext tag mismatch")
	}
	return nil
}

func bindTag(ct *Ciphertext) [32]byte {
	h := sha256.New()
	h.Write([]byte("threshenc-tag"))
	h.Write(ct.C1.Bytes())
	h.Write(ct.Body)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func kdf(el *big.Int) [32]byte {
	h := sha256.New()
	h.Write([]byte("threshenc-kdf"))
	h.Write(el.Bytes())
	var out [32]byte
	copy(out[:], h.Sum(nil))
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
