package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

type cfg struct {
	A, B, C int
	Seed    int64
}

func testGrid() Grid[cfg] {
	return Grid[cfg]{
		Base: cfg{Seed: 42},
		Axes: []Axis[cfg]{
			Over("a", []int{1, 2, 3}, nil, func(c *cfg, v int) { c.A = v }),
			Over("b", []int{10, 20}, nil, func(c *cfg, v int) { c.B = v }),
			Over("c", []int{100, 200}, func(v int) string { return fmt.Sprintf("c=%d", v) }, func(c *cfg, v int) { c.C = v }),
		},
	}
}

func TestCellsEnumerateRowMajor(t *testing.T) {
	g := testGrid()
	cells := g.Cells()
	if len(cells) != 12 || g.Size() != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Last axis fastest: the first four cells hold a=1 and walk b, c.
	want := []cfg{
		{A: 1, B: 10, C: 100, Seed: 42},
		{A: 1, B: 10, C: 200, Seed: 42},
		{A: 1, B: 20, C: 100, Seed: 42},
		{A: 1, B: 20, C: 200, Seed: 42},
	}
	for i, w := range want {
		if cells[i].Config != w {
			t.Errorf("cell %d: got %+v, want %+v", i, cells[i].Config, w)
		}
	}
	if got := cells[5].Name(); got != "a=2/b=10/c=200" {
		t.Errorf("cell 5 name: %q", got)
	}
	if cells[11].Index != 11 || !reflect.DeepEqual(cells[11].Coords, []int{2, 1, 1}) {
		t.Errorf("cell 11 identity: %+v", cells[11])
	}
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the
// result slice is bit-identical at every worker count even when cells
// finish wildly out of order.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid()
	exec := func(c Cell[cfg]) (string, error) {
		// Deterministic value derived only from the cell's config; sleep a
		// pseudo-random amount so completion order scrambles under workers.
		time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
		return fmt.Sprintf("%d/%d/%d@%d", c.Config.A, c.Config.B, c.Config.C, c.Config.Seed), nil
	}
	var baseline []string
	for _, workers := range []int{1, 2, 8, 32} {
		res, err := Run(g, Options{Workers: workers}, exec)
		if err != nil {
			t.Fatal(err)
		}
		got := Values(res)
		if baseline == nil {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("workers=%d: results diverge from workers=1:\n%v\nvs\n%v", workers, got, baseline)
		}
	}
}

func TestRunFilter(t *testing.T) {
	g := testGrid()
	res, err := Run(g, Options{Filter: "a=2/b=20"}, func(c Cell[cfg]) (int, error) {
		return c.Config.C, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Value != 100 || res[1].Value != 200 {
		t.Fatalf("filter kept wrong cells: %+v", res)
	}
	if _, err := Run(g, Options{Filter: "nope"}, func(c Cell[cfg]) (int, error) { return 0, nil }); err == nil {
		t.Error("empty filter match should error, not silently run nothing")
	}
}

func TestRunErrorNamesFirstFailingCell(t *testing.T) {
	g := testGrid()
	boom := errors.New("boom")
	_, err := Run(g, Options{Workers: 4}, func(c Cell[cfg]) (int, error) {
		if c.Config.A == 2 {
			return 0, boom
		}
		return 1, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want wrapped exec error, got %v", err)
	}
	// Grid order, not completion order: the first a=2 cell is index 4.
	if !strings.Contains(err.Error(), "a=2/b=10/c=100") {
		t.Errorf("error should name the first failing cell in grid order: %v", err)
	}
}

func TestRunProgressSerializedAndComplete(t *testing.T) {
	g := testGrid()
	var mu sync.Mutex
	seen := map[string]bool{}
	last := 0
	res, err := Run(g, Options{Workers: 6, Progress: func(done, total int, name string, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if done != last+1 || total != 12 {
			t.Errorf("progress out of order: done=%d after %d (total %d)", done, last, total)
		}
		last = done
		seen[name] = true
	}}, func(c Cell[cfg]) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 12 || len(seen) != 12 {
		t.Fatalf("progress saw %d cells, want 12", len(seen))
	}
}

// TestApplySeesPriorAxes pins the documented apply order: later axes see
// the mutations of earlier ones (the byz sweep derives its scenario from
// the protocol axis's N).
func TestApplySeesPriorAxes(t *testing.T) {
	g := Grid[cfg]{
		Base: cfg{A: 7},
		Axes: []Axis[cfg]{
			{Name: "first", Points: []Point[cfg]{{Label: "x2", Apply: func(c *cfg) { c.A *= 2 }}}},
			{Name: "second", Points: []Point[cfg]{{Label: "plusA", Apply: func(c *cfg) { c.B = c.A + 1 }}}},
		},
	}
	cells := g.Cells()
	if cells[0].Config.B != 15 {
		t.Errorf("second axis did not see first axis's mutation: %+v", cells[0].Config)
	}
}
