// Package shamir implements Shamir secret sharing over a prime field.
// It is the dealing primitive underneath the threshold signature, threshold
// coin, and threshold encryption schemes in sibling packages. The dealer is
// trusted, exactly as in the paper's testbed (keys are installed on the
// devices before deployment).
package shamir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"repro/internal/crypto/memo"
)

// Share is one party's point on the dealing polynomial: (X, f(X)).
// X is never zero (zero is the secret's evaluation point).
type Share struct {
	X int
	Y *big.Int
}

// ErrNotEnoughShares is returned when fewer than threshold shares are given.
var ErrNotEnoughShares = errors.New("shamir: not enough shares")

// Deal splits secret into n shares with reconstruction threshold k
// (any k shares recover the secret; k-1 reveal nothing) over the prime
// field Z_q. Randomness is drawn from rand.
func Deal(secret *big.Int, k, n int, q *big.Int, rand io.Reader) ([]Share, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("shamir: invalid threshold %d of %d", k, n)
	}
	if secret.Sign() < 0 || secret.Cmp(q) >= 0 {
		return nil, errors.New("shamir: secret out of field range")
	}
	coeffs := make([]*big.Int, k)
	coeffs[0] = new(big.Int).Set(secret)
	for i := 1; i < k; i++ {
		c, err := randInt(rand, q)
		if err != nil {
			return nil, fmt.Errorf("shamir: sampling coefficient: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = Share{X: i, Y: eval(coeffs, int64(i), q)}
	}
	return shares, nil
}

// eval computes f(x) mod q by Horner's rule.
func eval(coeffs []*big.Int, x int64, q *big.Int) *big.Int {
	bx := big.NewInt(x)
	y := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		y.Mul(y, bx)
		y.Add(y, coeffs[i])
		y.Mod(y, q)
	}
	return y
}

// Combine reconstructs the secret (f(0)) from at least k shares by
// Lagrange interpolation at zero over Z_q. Duplicate X coordinates are
// rejected.
func Combine(shares []Share, k int, q *big.Int) (*big.Int, error) {
	if len(shares) < k {
		return nil, ErrNotEnoughShares
	}
	use := shares[:k]
	seen := make(map[int]bool, k)
	for _, s := range use {
		if s.X == 0 {
			return nil, errors.New("shamir: share at x=0")
		}
		if seen[s.X] {
			return nil, fmt.Errorf("shamir: duplicate share x=%d", s.X)
		}
		seen[s.X] = true
	}
	secret := new(big.Int)
	for i, si := range use {
		li := LagrangeCoeff(use, i, q)
		term := new(big.Int).Mul(si.Y, li)
		secret.Add(secret, term)
		secret.Mod(secret, q)
	}
	return secret, nil
}

// LagrangeCoeff returns the Lagrange basis coefficient at zero for share i
// of the given subset, mod q: prod_{j != i} x_j / (x_j - x_i).
func LagrangeCoeff(subset []Share, i int, q *big.Int) *big.Int {
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(int64(subset[i].X))
	for j, sj := range subset {
		if j == i {
			continue
		}
		xj := big.NewInt(int64(sj.X))
		num.Mul(num, xj)
		num.Mod(num, q)
		d := new(big.Int).Sub(xj, xi)
		d.Mod(d, q)
		den.Mul(den, d)
		den.Mod(den, q)
	}
	den.ModInverse(den, q)
	num.Mul(num, den)
	num.Mod(num, q)
	return num
}

// lagCache memoizes LagrangeSet results. Interpolation subsets recur
// constantly in a simulation (every party combines the same handful of
// k-subsets for every coin flip and decryption), and the coefficients are
// a pure function of (subset, q). Keyed by the exact X sequence plus q.
var lagCache memo.Memo[string, []*big.Int]

// LagrangeSet returns the Lagrange basis coefficients at zero for every
// share of the subset, mod q, memoized across calls. The returned slice
// and its elements are shared and must not be mutated.
func LagrangeSet(subset []Share, q *big.Int) []*big.Int {
	// The key is laid out in a stack buffer: its string is the one
	// allocation of a hit.
	var stack [256]byte
	key := stack[:0]
	for _, s := range subset {
		key = binary.BigEndian.AppendUint32(key, uint32(s.X))
	}
	n := (q.BitLen() + 7) / 8
	key = slices.Grow(key, n)[:len(key)+n]
	q.FillBytes(key[len(key)-n:])
	return lagCache.Get(string(key), func() []*big.Int {
		set := make([]*big.Int, len(subset))
		for i := range subset {
			set[i] = LagrangeCoeff(subset, i, q)
		}
		return set
	})
}

// randInt samples a uniform element of [0, q).
func randInt(rand io.Reader, q *big.Int) (*big.Int, error) {
	bits := q.BitLen()
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	for {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, err
		}
		// Trim excess bits so the rejection rate is < 1/2.
		if excess := bytes*8 - bits; excess > 0 {
			buf[0] &= 0xFF >> excess
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(q) < 0 {
			return v, nil
		}
	}
}

// RandInt exposes uniform field sampling for sibling packages.
func RandInt(rand io.Reader, q *big.Int) (*big.Int, error) { return randInt(rand, q) }
