// Package tag makes the keyed tags behind the ideal threshold schemes
// (threshsig.Ideal, dlthresh.Ideal): a share an ideal scheme issues is a
// tag of its key, its signer and its subject, and checking one is
// recomputing it. The key is derived from the dealer's secret, which no
// party of a run holds, so no party can make a tag it was not issued: a
// guess is right with probability 2^-255 or less.
//
// A tag's input is laid out by its caller in a stack buffer (Input, then
// the subject's parts at fixed widths or behind their lengths) and
// stretched into one (Fill): checking a share allocates nothing.
package tag

import (
	"crypto/sha256"
	"encoding/binary"
)

// Key keys one ideal scheme's tags.
type Key [32]byte

// NewKey derives a key from a domain and the dealer's secret.
func NewKey(domain string, secret []byte) Key {
	return Key(sha256.Sum256(append([]byte(domain), secret...)))
}

// Input appends the start of a tag's input to buf: the key, a label that
// names the field, and the signer's index.
func (k *Key) Input(buf []byte, label byte, index int) []byte {
	buf = append(append(buf, k[:]...), label)
	return binary.BigEndian.AppendUint32(buf, uint32(index))
}

// Fill fills out with the counter-mode SHA-256 of in, read as a
// big-endian number of out's width, keeping its low bits bits and setting
// its lowest: a number in [1, 2^bits).
func Fill(out []byte, bits int, in []byte) {
	var block [36]byte
	seed := sha256.Sum256(in)
	copy(block[:], seed[:])
	for i, at := uint32(0), 0; at < len(out); i++ {
		binary.BigEndian.PutUint32(block[32:], i)
		h := sha256.Sum256(block[:])
		at += copy(out[at:], h[:])
	}
	for i := 0; i < len(out) && 8*(len(out)-i) > bits; i++ {
		if keep := bits - 8*(len(out)-i-1); keep > 0 {
			out[i] &= byte(1<<keep - 1)
		} else {
			out[i] = 0
		}
	}
	if len(out) > 0 {
		out[len(out)-1] |= 1
	}
}
