// Package memo is the one bounded memo behind the crypto packages' host-
// time caches: per-message exponentiation contexts, comb tables, Lagrange
// coefficients, subgroup-membership verdicts (among them the powers of a
// verified member, recorded without a check), share-verification
// verdicts, discrete-log interpolations by their shares' indices and
// values, and threshold-signature combinations, signature or error, by
// their message and shares' indices and values.
//
// None of it changes observable behaviour: everything cached is a pure
// function of its key, so a hit returns exactly what a fresh computation
// would. Virtual-time charges are made by the callers through the cost
// model and are likewise untouched — the simulated MCU still pays full
// price per operation; only the host machine skips repeat work.
package memo

import (
	"encoding/binary"
	"math/big"
	"slices"
	"sync"
)

// Cap bounds every memo: a full one is cleared before its next store. A
// sweep cell's working set is far smaller, so eviction is a safety valve,
// not a tuning knob.
const Cap = 4096

// Memo caches a pure function of K. The zero value is ready to use, and
// all methods are safe for concurrent use: dealt keys — and so their
// memos — are shared across concurrently running simulations.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get returns the value cached under key, computing and storing it on a
// miss. compute runs outside the lock; goroutines that miss together all
// return whichever value was stored first.
func (c *Memo[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	v, hit := c.m[key]
	c.mu.Unlock()
	if hit {
		return v
	}
	v = compute()
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, hit := c.m[key]; hit {
		return prior
	}
	if c.m == nil {
		c.m = make(map[K]V)
	} else if len(c.m) >= Cap {
		clear(c.m)
	}
	c.m[key] = v
	return v
}

// Peek returns the value cached under key, if there is one, and computes
// nothing.
func (c *Memo[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, hit := c.m[key]
	return v, hit
}

// Len returns the number of cached entries.
func (c *Memo[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// AppendMagnitude appends |v|'s big-endian bytes behind their length, as
// the crypto packages lay a number out in a memo key. The key reads the
// magnitude only, so its caller refuses a value whose sign or range would
// let it alias another before the key is made.
func AppendMagnitude(buf []byte, v *big.Int) []byte {
	n := (v.BitLen() + 7) / 8
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = slices.Grow(buf, n)[:len(buf)+n]
	v.FillBytes(buf[len(buf)-n:])
	return buf
}
