package dlthresh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/memo"
	"repro/internal/crypto/tag"
)

// Ideal is the ideal functionality of a dealt key (Canetti, "Universally
// Composable Security", FOCS 2001), with the key's own API, the use's base
// named for combinations too: it issues party i's share of a use as a
// keyed tag of (i, the base's tag), at the widths of a real share's
// fields, recognises exactly the shares it issued, and gives any
// combination of them the one element a real one gives, base^s, computed
// once per use from the dealer's secret.
//
// A share is refused by the same index and range checks as a real one
// and, past them, exactly when it is not the one issued: a real share
// that is not base^{s_i} fails its proof and its bare combination but
// with negligible probability. A combination of K verified shares that
// holds one that was not issued fails (ErrNotIssued), where a real one
// interpolates some other element — which a decryption then refuses
// against the ciphertext's commitment (threshenc.Ideal says so), and
// which a coin, whose shares are always verified first, never meets. A
// base outside the group (a ciphertext's C1 of a Byzantine encryptor's
// making) has shares that never verify and never combine, as a real
// key's fail its proofs' membership check and its bare combination's. The
// share calls read the proof's nonce from the caller's randomness as the
// real ones do.
type Ideal struct {
	pk    *PublicKey
	s     *big.Int // the dealer's secret
	mac   tag.Key
	elems memo.Memo[[32]byte, *big.Int] // Base.Tag's digest -> base^s, nil for a base outside the group
}

// newIdeal makes the ideal functionality of pk, whose secret is s.
func newIdeal(pk *PublicKey, s *big.Int) *Ideal {
	return &Ideal{pk: pk, s: s, mac: tag.NewKey("dlthresh-ideal", s.Bytes())}
}

// element returns base^s for the use b names, computed on its first call,
// or nil if the base is not in the group.
func (id *Ideal) element(b Base) *big.Int {
	k := sha256.Sum256(b.Tag)
	if el, ok := id.elems.Peek(k); ok {
		return el
	}
	return id.elems.Get(k, func() *big.Int {
		base := b.Element()
		if !id.pk.Group.IsElement(base) {
			return nil
		}
		return id.pk.Group.Exp(base, id.s)
	})
}

// Record records el as base^s for the use b names: the caller knows it is,
// as an encryptor knows its KEM secret VK^r is C1^s.
func (id *Ideal) Record(b Base, el *big.Int) {
	id.elems.Get(sha256.Sum256(b.Tag), func() *big.Int { return el })
}

// maxWidth bounds the bytes of P the tags lay out on the stack: SG-3072's
// are 384.
const maxWidth = 512

// input lays out the start of party i's tag of field label of the use
// tagged t in stack.
func (id *Ideal) input(stack []byte, label byte, i int, t []byte) []byte {
	in := id.mac.Input(stack, label, i)
	in = binary.BigEndian.AppendUint32(in, uint32(len(t)))
	return append(in, t...)
}

// value fills out, P's width, with the V the ideal key issues to party i
// for the use tagged t: below 2^(|P|-1), so in (0, P).
func (id *Ideal) value(out []byte, i int, t []byte) []byte {
	var stack [256]byte
	tag.Fill(out, id.pk.Group.P.BitLen()-1, id.input(stack[:0], 'v', i, t))
	return out
}

// scalar is the scalar of field label (the proof's Z or C) of party i's
// share of the use tagged t, over the extra parts: below 2^(|Q|-1).
func (id *Ideal) scalar(label byte, i int, t []byte, parts ...*big.Int) *big.Int {
	var stack [1024]byte
	in := id.input(stack[:0], label, i, t)
	for _, p := range parts {
		in = memo.AppendMagnitude(in, p)
	}
	var out [32]byte
	q := (id.pk.Group.Q.BitLen() + 7) / 8
	tag.Fill(out[:q], id.pk.Group.Q.BitLen()-1, in)
	return new(big.Int).SetBytes(out[:q])
}

// proof is the (C, Z) of party i's share v of the use tagged t under the
// nonce w: scalars below Q, C binding v and Z.
func (id *Ideal) proof(i int, t []byte, v, w *big.Int) *dleq.Proof {
	z := id.scalar('z', i, t, w)
	return &dleq.Proof{C: id.scalar('c', i, t, v, z), Z: z}
}

// ShareBare issues party priv.Index's share of the use b names, its proof
// pending: the proof's nonce is read from rand as PublicKey.ShareBare
// reads it.
func (id *Ideal) ShareBare(b Base, priv PrivateShare, rand io.Reader) (*Share, error) {
	w, err := dleq.Nonce(id.pk.Group, rand)
	if err != nil {
		return nil, fmt.Errorf("dlthresh: drawing the proof's nonce: %w", err)
	}
	var out [maxWidth]byte
	v := new(big.Int).SetBytes(id.value(out[:id.pk.Group.ElementLen()], priv.Index, b.Tag))
	return &Share{Index: priv.Index, V: v, pending: &pendingProof{ideal: id, tag: b.Tag, w: w}}, nil
}

// Share issues party priv.Index's share of the use b names, with its
// proof.
func (id *Ideal) Share(b Base, priv PrivateShare, rand io.Reader) (*Share, error) {
	sh, err := id.ShareBare(b, priv, rand)
	if err != nil {
		return nil, err
	}
	sh.Prove()
	return sh, nil
}

// ErrNotIssued is the ideal key's verdict on a share it did not issue.
var ErrNotIssued = errors.New("dlthresh: share proof rejected")

// issued reports whether sh's V is the one the ideal key issued for the
// use tagged t. The caller has checked V is in (0, P).
func (id *Ideal) issued(t []byte, sh *Share) bool {
	n := id.pk.Group.ElementLen()
	if sh.Index < 1 || sh.Index > id.pk.L || n > maxWidth {
		return false
	}
	var want, got [maxWidth]byte
	return bytes.Equal(id.value(want[:n], sh.Index, t), sh.V.FillBytes(got[:n]))
}

// VerifyShare checks a share of the use b names as PublicKey.VerifyShare
// does its index and ranges, then against the share the ideal key issued.
func (id *Ideal) VerifyShare(b Base, sh *Share) error {
	if err := id.pk.checkShare(sh); err != nil {
		return err
	}
	if id.element(b) == nil || !id.issued(b.Tag, sh) || sh.Proof.C.Cmp(id.scalar('c', sh.Index, b.Tag, sh.V, sh.Proof.Z)) != 0 {
		return ErrNotIssued
	}
	return nil
}

// Combine takes the first K shares of the use b names, as
// PublicKey.Combine does, and returns base^s when every one of them was
// issued.
func (id *Ideal) Combine(b Base, shares []*Share) (*big.Int, error) {
	shares, err := id.pk.firstK(shares)
	if err != nil {
		return nil, err
	}
	return id.combine(b, shares, ErrNotIssued)
}

// combine returns base^s when every share was issued and the base is in
// the group, and refusal otherwise.
func (id *Ideal) combine(b Base, shares []*Share, refusal error) (*big.Int, error) {
	for _, sh := range shares {
		if !id.issued(b.Tag, sh) {
			return nil, refusal
		}
	}
	el := id.element(b)
	if el == nil {
		return nil, refusal
	}
	return new(big.Int).Set(el), nil
}

// CombineBare takes the first BareQuorum shares of the use b names, as
// PublicKey.CombineBare does, and returns base^s when every one of them
// was issued (ErrInconsistent otherwise).
func (id *Ideal) CombineBare(b Base, shares []*Share) (*big.Int, error) {
	shares, err := id.pk.bareQuorum(shares)
	if err != nil {
		return nil, err
	}
	return id.combine(b, shares, ErrInconsistent)
}
