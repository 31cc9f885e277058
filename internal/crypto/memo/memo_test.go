package memo

import (
	"sync"
	"testing"
)

func TestGetComputesOncePerKey(t *testing.T) {
	var m Memo[int, int]
	calls := 0
	for i := 0; i < 3; i++ {
		if got := m.Get(7, func() int { calls++; return 49 }); got != 49 {
			t.Fatalf("Get = %d", got)
		}
	}
	if calls != 1 || m.Len() != 1 {
		t.Errorf("%d computations, %d entries; want 1 and 1", calls, m.Len())
	}
}

// TestFirstStoreWins: goroutines that miss together all return the one
// stored value, even when their computations differ.
func TestFirstStoreWins(t *testing.T) {
	var m Memo[string, *int]
	var wg sync.WaitGroup
	got := make([]*int, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Get("k", func() *int { return new(int) })
		}()
	}
	wg.Wait()
	for _, p := range got {
		if p != got[0] {
			t.Fatal("concurrent misses returned different values")
		}
	}
}

func TestOverflowClears(t *testing.T) {
	var m Memo[int, int]
	for i := 0; i < Cap+2; i++ {
		m.Get(i, func() int { return i })
	}
	if n := m.Len(); n > Cap || n == 0 {
		t.Errorf("memo holds %d entries, cap %d", n, Cap)
	}
	if got := m.Get(0, func() int { return -1 }); got != -1 {
		t.Errorf("evicted key still cached: %d", got)
	}
}

func TestPeekComputesNothing(t *testing.T) {
	var m Memo[int, int]
	if _, hit := m.Peek(7); hit || m.Len() != 0 {
		t.Fatal("Peek on an empty memo hit or stored")
	}
	m.Get(7, func() int { return 49 })
	if v, hit := m.Peek(7); !hit || v != 49 {
		t.Errorf("Peek = %d, %v; want 49, true", v, hit)
	}
}
