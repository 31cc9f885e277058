package mont

import (
	"math/big"
	"math/bits"
)

// CRT recombines residues mod two coprime moduli p and q into the residue
// mod p·q they determine (Garner): y = yq + q·h with h = (yp - yq)·q^-1
// mod p. When p and q run on kernels of one width, Join stays in words up
// to its result — h is one Montgomery multiplication in p's form, and
// yq + q·h is written straight into the big.Int it returns, its one
// allocation; otherwise math/big recombines the same residues.
type CRT struct {
	p, q  *Modulus
	qInvP *big.Int         // q^-1 mod p
	qInv  [maxWords]uint64 // the same, plain words: a Montgomery product by it leaves the form
}

// NewCRT returns the recombination for p and q, nil when q has no inverse
// mod p.
func NewCRT(p, q *Modulus) *CRT {
	inv := new(big.Int).ModInverse(q.nat, p.nat)
	if inv == nil {
		return nil
	}
	c := &CRT{p: p, q: q, qInvP: inv}
	if c.words() {
		load(c.qInv[:], inv)
	}
	return c
}

// words reports whether Join runs in words: both moduli on kernels of one
// width.
func (c *CRT) words() bool { return c.p.w != 0 && c.p.w == c.q.w }

// Join returns the y in [0, p·q) with y = yp mod p and y = yq mod q.
func (c *CRT) Join(yp, yq *Elem) *big.Int {
	if !c.words() {
		a, b := c.p.Int(yp), c.q.Int(yq)
		h := a.Sub(a, b)
		h.Mul(h, c.qInvP)
		h.Mod(h, c.p.nat)
		h.Mul(h, c.q.nat)
		return h.Add(h, b)
	}
	p, q, w := c.p, c.q, c.p.w
	var b, h [maxWords]uint64
	q.plain(b[:w], yq.w[:w])        // yq, below q < R
	p.mul(h[:w], b[:w], p.r2[:w])   // yq·R mod p: yq in p's form
	p.sub(h[:w], yp.w[:w], h[:w])   // (yp - yq)·R mod p
	p.mul(h[:w], h[:w], c.qInv[:w]) // h, plain: below p
	// y = yq + q·h < p·q, schoolbook into 2w words.
	out := make([]big.Word, 2*w)
	for i, wd := range b[:w] {
		out[i] = big.Word(wd)
	}
	for i := 0; i < w; i++ {
		var carry uint64
		for j := 0; j < w; j++ {
			hi, lo := bits.Mul64(q.m[j], h[i])
			var cc uint64
			lo, cc = bits.Add64(lo, uint64(out[i+j]), 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			hi += cc
			out[i+j], carry = big.Word(lo), hi
		}
		out[i+w] = big.Word(carry)
	}
	return new(big.Int).SetBits(out)
}
