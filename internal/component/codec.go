package component

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/big"
	"slices"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
)

// Share payloads on the wire are a 1-byte index followed by three
// length-prefixed big integers: a threshold-signature share and a
// discrete-log threshold share (coin or decryption) both fit this shape.
// A bare share stops after the first, its value: the index and X (a
// signature share) or V (a decryption share) without the proof (C, Z)
// that follows them in a full one.
//
// Each integer goes out at its field's width (widths), not at its own
// length: a value with a leading zero byte is as long on the air as any
// other, so no frame's length depends on the arithmetic that made it.

var errShortShare = errors.New("component: truncated share encoding")

var errNonCanonical = errors.New("component: certificate not in canonical form")

var errBareShare = errors.New("component: bare share value out of range")

// widths are the byte widths of a share's three fields: its value, and
// its proof's challenge and response.
type widths [3]int

// sigWidths are a threshold-signature share's: X below N, C a SHA-256
// digest, and Z = w + c·s_i, with w of |N| + 512 bits and c·s_i shorter,
// below 2^(|N|+513).
func sigWidths(pk *threshsig.PublicKey) widths {
	return widths{(pk.N.BitLen() + 7) / 8, sha256.Size, (pk.N.BitLen() + 513 + 7) / 8}
}

// dlWidths are a discrete-log share's over g: V an element, C and Z
// scalars below Q.
func dlWidths(g *group.Group) widths {
	q := (g.Q.BitLen() + 7) / 8
	return widths{g.ElementLen(), q, q}
}

// appendBig appends v behind its length, at width bytes, or at its own
// length if that is longer (a value no honest share has).
func appendBig(buf []byte, v *big.Int, width int) []byte {
	n := max(width, (v.BitLen()+7)/8)
	buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	buf = slices.Grow(buf, n)[:len(buf)+n]
	v.FillBytes(buf[len(buf)-n:])
	return buf
}

func readBig(buf []byte) (*big.Int, []byte, error) {
	if len(buf) < 2 {
		return nil, nil, errShortShare
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return nil, nil, errShortShare
	}
	return new(big.Int).SetBytes(buf[:n]), buf[n:], nil
}

func encodeShare(w widths, index int, ints ...*big.Int) []byte {
	buf := []byte{byte(index)}
	for i, v := range ints {
		buf = appendBig(buf, v, w[i])
	}
	return buf
}

func decodeShare(buf []byte, n int) (int, []*big.Int, error) {
	if len(buf) < 1 {
		return 0, nil, errShortShare
	}
	idx := int(buf[0])
	buf = buf[1:]
	ints := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		var err error
		ints[i], buf, err = readBig(buf)
		if err != nil {
			return 0, nil, err
		}
	}
	return idx, ints, nil
}

// EncodeSigShare serializes a threshold-signature share with its proof,
// making the proof first if the share was made bare
// (threshsig.SigShare.Prove), at pk's widths.
func EncodeSigShare(pk *threshsig.PublicKey, sh *threshsig.SigShare) []byte {
	sh.Prove()
	return encodeShare(sigWidths(pk), sh.Index, sh.X, sh.C, sh.Z)
}

// DecodeSigShare parses a threshold-signature share.
func DecodeSigShare(buf []byte) (*threshsig.SigShare, error) {
	idx, ints, err := decodeShare(buf, 3)
	if err != nil {
		return nil, err
	}
	return &threshsig.SigShare{Index: idx, X: ints[0], C: ints[1], Z: ints[2]}, nil
}

// EncodeBareSigShare serializes a threshold-signature share without its
// proof: the prefix of EncodeSigShare's bytes that holds the index and X.
func EncodeBareSigShare(pk *threshsig.PublicKey, sh *threshsig.SigShare) []byte {
	return encodeShare(sigWidths(pk), sh.Index, sh.X)
}

// DecodeBareSigShare parses a bare threshold-signature share; C and Z are
// nil.
func DecodeBareSigShare(buf []byte) (*threshsig.SigShare, error) {
	idx, ints, err := decodeShare(buf, 1)
	if err != nil {
		return nil, err
	}
	return &threshsig.SigShare{Index: idx, X: ints[0]}, nil
}

// EncodeDLShare serializes a discrete-log threshold share, a coin share
// or a decryption share, with its proof, making the proof first if the
// share was made bare (dlthresh.Share.Prove), at g's widths.
func EncodeDLShare(g *group.Group, sh *dlthresh.Share) []byte {
	sh.Prove()
	return encodeShare(dlWidths(g), sh.Index, sh.V, sh.Proof.C, sh.Proof.Z)
}

// DecodeDLShare parses a discrete-log threshold share.
func DecodeDLShare(buf []byte) (*dlthresh.Share, error) {
	idx, ints, err := decodeShare(buf, 3)
	if err != nil {
		return nil, err
	}
	return &dlthresh.Share{Index: idx, V: ints[0], Proof: &dleq.Proof{C: ints[1], Z: ints[2]}}, nil
}

// EncodeBareDLShare serializes a discrete-log threshold share without its
// proof: the prefix of EncodeDLShare's bytes that holds the index and V.
func EncodeBareDLShare(g *group.Group, sh *dlthresh.Share) []byte {
	return encodeShare(dlWidths(g), sh.Index, sh.V)
}

// DecodeBareDLShare parses a bare discrete-log threshold share; its Proof
// is nil.
func DecodeBareDLShare(buf []byte) (*dlthresh.Share, error) {
	idx, ints, err := decodeShare(buf, 1)
	if err != nil {
		return nil, err
	}
	return &dlthresh.Share{Index: idx, V: ints[0]}, nil
}

// CiphertextOverhead returns the bytes EncodeCiphertext adds to a
// plaintext encrypted over g: threshenc's own, plus C1's length prefix.
func CiphertextOverhead(g *group.Group) int { return 2 + threshenc.CiphertextOverhead(g) }

// EncodeCiphertext serializes a threshold ciphertext for RBC dissemination:
// C1 at g's element width, the key commitment, the tag, and the body
// behind its length.
func EncodeCiphertext(g *group.Group, ct *threshenc.Ciphertext) []byte {
	buf := appendBig(nil, ct.C1, g.ElementLen())
	buf = append(buf, ct.Commit[:]...)
	buf = append(buf, ct.Tag[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ct.Body)))
	return append(buf, ct.Body...)
}

// DecodeCiphertext parses a threshold ciphertext and checks its binding
// tag: a ciphertext that parses but fails the tag is one no node will make
// a decryption share of, so it is refused here with the malformed ones and
// the caller never waits on its plaintext. One whose tag holds but whose
// commitment is not the key's is refused later, by its combination.
func DecodeCiphertext(buf []byte) (*threshenc.Ciphertext, error) {
	c1, rest, err := readBig(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) < 32+32+4 {
		return nil, errShortShare
	}
	var ct threshenc.Ciphertext
	ct.C1 = c1
	copy(ct.Commit[:], rest[:32])
	copy(ct.Tag[:], rest[32:64])
	rest = rest[64:]
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < n {
		return nil, errShortShare
	}
	ct.Body = append([]byte(nil), rest[:n]...)
	if err := threshenc.CheckCiphertext(&ct); err != nil {
		return nil, err
	}
	return &ct, nil
}

// EncodeFinish packs a CBC FINISH payload (hash + combined signature).
func EncodeFinish(h Hash8, sig []byte) []byte {
	buf := make([]byte, 0, 8+2+len(sig))
	buf = append(buf, h[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(sig)))
	return append(buf, sig...)
}

// DecodeFinish unpacks a CBC FINISH payload.
func DecodeFinish(buf []byte) (Hash8, []byte, error) {
	var h Hash8
	if len(buf) < 10 {
		return h, nil, errShortShare
	}
	copy(h[:], buf[:8])
	n := int(binary.BigEndian.Uint16(buf[8:]))
	buf = buf[10:]
	if len(buf) < n {
		return h, nil, errShortShare
	}
	return h, append([]byte(nil), buf[:n]...), nil
}
