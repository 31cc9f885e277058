package crypto

import (
	"math/rand"
	"sync"
	"testing"
)

// TestDealCachedReturnsSameSuites pins the memoization contract: same key
// -> same slice (pointer-identical, one dealer run), different seed ->
// different threshold keys.
func TestDealCachedReturnsSameSuites(t *testing.T) {
	a, err := DealCached(4, 1, LightConfig(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DealCached(4, 1, LightConfig(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] || a[0] != b[0] {
		t.Error("same (n,f,cfg,seed) should hit the cache and return identical suites")
	}
	c, err := DealCached(4, 1, LightConfig(), 54321)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].TSLow.Salt == c[0].TSLow.Salt {
		t.Error("different seeds must not share a deal (salts collide)")
	}
}

// TestDealCachedConcurrent hammers one key and several others from many
// goroutines; under -race this is the regression test for the sweep
// engine's shared keygen path.
func TestDealCachedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	results := make([][]*Suite, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := DealCached(4, 1, LightConfig(), 777+int64(g%3))
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = s
		}()
	}
	wg.Wait()
	for g := 3; g < 16; g++ {
		if results[g] == nil || results[g-3] == nil {
			t.Fatal("missing result")
		}
		if results[g][0] != results[g-3][0] {
			t.Errorf("goroutines %d and %d share a key but got different suites", g, g-3)
		}
	}
}

// TestDealCachedMatchesHistoricalDerivation verifies the cache reproduces
// what a fresh Deal over the same seeded reader produces: the threshold
// key material (which every golden number depends on) is bit-identical.
func TestDealCachedMatchesHistoricalDerivation(t *testing.T) {
	cached, err := DealCached(4, 1, LightConfig(), 99^0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Deal(4, 1, LightConfig(), rand.New(rand.NewSource(99^0x5eed)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cached {
		if cached[i].TSLow.Salt != fresh[i].TSLow.Salt ||
			cached[i].TSLowShare.S.Cmp(fresh[i].TSLowShare.S) != 0 ||
			cached[i].TSHighShare.S.Cmp(fresh[i].TSHighShare.S) != 0 ||
			cached[i].TCShare.S.Cmp(fresh[i].TCShare.S) != 0 ||
			cached[i].TEShare.S.Cmp(fresh[i].TEShare.S) != 0 {
			t.Errorf("suite %d: threshold material diverges between cache hits", i)
		}
	}
}
