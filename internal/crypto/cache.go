package crypto

import (
	"math/rand"
	"sync"
)

// dealKey identifies one dealer invocation: the parameter sets, the group
// geometry, and the seed of the deterministic randomness stream. The seed
// is part of the key — two runs with different seeds must not share
// threshold keys, or their common coins (and therefore every golden
// number downstream) would collide.
type dealKey struct {
	N, F int
	Cfg  Config
	Seed int64
	Real bool // RealSuites
}

// dealEntry is one cached deal; the Once keeps the expensive dealer run
// off the cache lock so concurrent first users of *different* keys deal
// in parallel while same-key users wait for one result.
type dealEntry struct {
	once   sync.Once
	suites []*Suite
	err    error
}

var (
	dealMu    sync.Mutex
	dealCache = map[dealKey]*dealEntry{}
)

// DealCached is Deal memoized behind a race-safe cache keyed by
// (n, f, cfg, seed): the first caller runs the trusted dealer over
// rand.New(rand.NewSource(seed)) exactly as the drivers historically did,
// and every later caller — including concurrent sweep cells on other
// goroutines — receives the same suite slice.
//
// Sharing is sound because suites are immutable after dealing: the
// simulation drivers only read key material, and every threshold
// operation draws randomness from a caller-supplied RNG, never from the
// suite. Callers that need private, mutable suites should call Deal
// directly.
//
// Beyond enabling parallel sweeps, the cache also speeds sequential ones:
// a grid re-running one (suite, n, f, seed) point across protocols and
// transports pays for modular-exponentiation-heavy keygen once instead of
// once per cell.
func DealCached(n, f int, cfg Config, seed int64) ([]*Suite, error) {
	k := dealKey{N: n, F: f, Cfg: cfg, Seed: seed, Real: realSuites.Load()}
	dealMu.Lock()
	e, ok := dealCache[k]
	if !ok {
		e = &dealEntry{}
		dealCache[k] = e
	}
	dealMu.Unlock()
	e.once.Do(func() {
		e.suites, e.err = Deal(n, f, cfg, rand.New(rand.NewSource(seed)))
	})
	return e.suites, e.err
}
