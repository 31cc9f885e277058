package threshsig

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/crypto/memo"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/tag"
)

// Ideal is the ideal functionality of a dealt key (Canetti, "Universally
// Composable Security", FOCS 2001), with the key's own API: it issues
// party i's share of a message as a keyed tag of (i, message), at the
// widths of a real share's fields, recognises exactly the shares it
// issued, and gives any k of them the one signature a real combination
// gives, H(msg)^(1/e) mod N — the e-th root is unique, so every quorum
// combines to it — computed once per message from the dealer's primes.
//
// Inside a run, real arithmetic decides which shares are valid, what a
// combination yields, and how many bytes each operation reads from the
// caller's randomness. The ideal key decides each the same way: a share
// is refused by the same structural checks and, past them, exactly when
// it is not the one issued (a real share that is not x_i fails its proof
// or its combination but with negligible probability); a combination of
// issued shares returns the real signature; and SignBare reads the proof
// nonce's bytes that the real one reads. Only the values of shares and
// proofs differ, and nothing reads them but these checks.
type Ideal struct {
	pk     *PublicKey
	mac    tag.Key
	p, q   *mont.Modulus
	crt    *mont.CRT
	dp, dq *big.Int // 1/e mod p−1 and mod q−1
	sigs   memo.Memo[[32]byte, *big.Int]
}

// newIdeal makes the ideal functionality of pk, dealt from the primes p
// and q with the signing exponent d.
func newIdeal(pk *PublicKey, p, q, d *big.Int) *Ideal {
	id := &Ideal{pk: pk, mac: tag.NewKey("threshsig-ideal", append(d.Bytes(), pk.Salt[:]...)),
		p: mont.NewModulus(p), q: mont.NewModulus(q)}
	id.crt = mont.NewCRT(id.p, id.q)
	id.dp = new(big.Int).ModInverse(pk.E, new(big.Int).Sub(p, one))
	id.dq = new(big.Int).ModInverse(pk.E, new(big.Int).Sub(q, one))
	return id
}

// maxWidth bounds the bytes of N the tags lay out on the stack: TS-3072's
// are 384.
const maxWidth = 512

// value fills out, N's width, with the X the ideal key issues to party i
// for the message with digest md: below 2^(|N|-1), so below N.
func (id *Ideal) value(out []byte, i int, md *[32]byte) []byte {
	var stack [128]byte
	tag.Fill(out, id.pk.N.BitLen()-1, append(id.mac.Input(stack[:0], 'x', i), md[:]...))
	return out
}

// issued reports whether x is party i's share of the message with digest
// md. x is the wire's: it may be anything.
func (id *Ideal) issued(i int, md *[32]byte, x *big.Int) bool {
	n := (id.pk.N.BitLen() + 7) / 8
	if i < 1 || i > id.pk.L || x == nil || x.Sign() <= 0 || x.Cmp(id.pk.N) >= 0 || n > maxWidth {
		return false
	}
	var want, got [maxWidth]byte
	return bytes.Equal(id.value(want[:n], i, md), x.FillBytes(got[:n]))
}

// proof is the (C, Z) of party i's share x of the message with digest md
// under the nonce's bytes w: Z is as wide as w, and C, a digest, binds x
// and Z.
func (id *Ideal) proof(i int, md *[32]byte, x *big.Int, w []byte) (c, z *big.Int) {
	var stack [512]byte
	zb := stack[:len(w)]
	tag.Fill(zb, 8*len(w), append(append(id.mac.Input(stack[len(w):len(w)], 'z', i), md[:]...), w...))
	z = new(big.Int).SetBytes(zb)
	d := id.challenge(i, md, x, z)
	return new(big.Int).SetBytes(d[:]), z
}

// challenge is the C of party i's share x of the message with digest md
// and the Z beside it. The caller has checked x is in (0, N).
func (id *Ideal) challenge(i int, md *[32]byte, x, z *big.Int) [32]byte {
	var stack [1024]byte
	in := append(id.mac.Input(stack[:0], 'c', i), md[:]...)
	in = memo.AppendMagnitude(memo.AppendMagnitude(in, x), z)
	return sha256.Sum256(in)
}

// SignBare issues party share.Index's share of msg, its proof pending:
// the proof's nonce is read from rand as PublicKey.SignBare reads it.
func (id *Ideal) SignBare(share PrivateShare, msg []byte, rand io.Reader) (*SigShare, error) {
	w := make([]byte, (id.pk.N.BitLen()+512+7)/8)
	if _, err := io.ReadFull(rand, w); err != nil {
		return nil, err
	}
	md := sha256.Sum256(msg)
	var out [maxWidth]byte
	x := new(big.Int).SetBytes(id.value(out[:(id.pk.N.BitLen()+7)/8], share.Index, &md))
	return &SigShare{Index: share.Index, X: x, pending: &pendingProof{ideal: id, md: md, w: w}}, nil
}

var errNotIssued = errors.New("threshsig: share proof rejected")

// VerifyShare checks a share of msg as PublicKey.VerifyShare does its
// shape, then against the share the ideal key issued.
func (id *Ideal) VerifyShare(msg []byte, sh *SigShare) error {
	if err := checkShareShape(id.pk, sh); err != nil {
		return err
	}
	md := sha256.Sum256(msg)
	if !id.issued(sh.Index, &md, sh.X) || !isDigest(sh.C, id.challenge(sh.Index, &md, sh.X, sh.Z)) {
		return errNotIssued
	}
	return nil
}

// Combine takes the first k shares, as PublicKey.Combine does, and
// returns msg's signature when every one of them was issued.
func (id *Ideal) Combine(msg []byte, shares []*SigShare) (*Signature, error) {
	pk := id.pk
	use, err := pk.firstK(shares)
	if err != nil {
		return nil, err
	}
	md := sha256.Sum256(msg)
	for _, sh := range use {
		if !id.issued(sh.Index, &md, sh.X) {
			return nil, fmt.Errorf("threshsig: combination failed (bad share among inputs): %w", errVerify)
		}
	}
	s, ok := id.sigs.Peek(md)
	if !ok {
		s = id.sigs.Get(md, func() *big.Int { return id.root(hashToModulus(pk.N, pk.Salt, msg)) })
	}
	return &Signature{S: new(big.Int).Set(s)}, nil
}

// root returns x's e-th root mod N, one power in each CRT half.
func (id *Ideal) root(x *big.Int) *big.Int {
	var sp, sq mont.Elem
	id.p.SetInt(&sp, x)
	id.p.Pow(&sp, &sp, id.dp)
	id.q.SetInt(&sq, x)
	id.q.Pow(&sq, &sq, id.dq)
	return id.crt.Join(&sp, &sq)
}
