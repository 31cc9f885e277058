// Package sweep is the declarative grid engine behind every bench
// experiment: a Grid names the axes of a parameter sweep (each axis point
// mutates a copy of a base configuration), and Run executes the full
// factorial on a worker pool, one cell per goroutine.
//
// Determinism is the contract. A cell's configuration is a pure function
// of its grid coordinates — the base is copied by value and the axis
// points are applied in axis order — so any seed a cell carries is fixed
// before execution begins, and results are returned in grid enumeration
// order (row-major, last axis fastest) no matter how many workers run or
// which cells finish first. A sweep therefore produces bit-identical
// rows at -parallel 1 and -parallel 8, which golden_test.go enforces
// against the committed BENCH trajectories.
//
// The engine requires exec to be safe for concurrent calls. For the
// bench sweeps that means run.Run must be reentrant: every run owns its
// scheduler, channel, and RNGs, and the one shared structure — the
// threshold-keygen cache (crypto.DealCached) — is race-safe and keyed so
// concurrent cells cannot observe each other.
//
// Apply functions must *replace* reference-typed fields (slices, maps)
// rather than mutating them in place: the base configuration is shared
// by value across all cells, so an in-place append would alias state
// between concurrently-running cells.
package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// ErrNoCells is wrapped by Run when a filter matches no cell of the
// grid; callers sweeping many grids (wbft-bench -exp all) use it to
// distinguish "this experiment has no matching cells" from a real
// failure.
var ErrNoCells = errors.New("no cells match filter")

// Point is one value on an axis: a label (used in cell names and -filter
// matching) plus the mutation it applies to the cell configuration.
type Point[C any] struct {
	Label string
	Apply func(*C)
}

// Axis is one named dimension of a grid.
type Axis[C any] struct {
	Name   string
	Points []Point[C]
}

// Over builds an axis from a list of values: one point per value, whose
// Apply hands the value to set. A point is labelled label(v), or
// "name=v" when label is nil.
func Over[C, V any](name string, vals []V, label func(V) string, set func(*C, V)) Axis[C] {
	ax := Axis[C]{Name: name, Points: make([]Point[C], len(vals))}
	for i, v := range vals {
		l := fmt.Sprintf("%s=%v", name, v)
		if label != nil {
			l = label(v)
		}
		ax.Points[i] = Point[C]{Label: l, Apply: func(c *C) { set(c, v) }}
	}
	return ax
}

// Grid declares a full-factorial sweep over a base configuration.
type Grid[C any] struct {
	Base C
	Axes []Axis[C]
}

// Cell is one grid coordinate with its fully-applied configuration.
type Cell[C any] struct {
	// Index is the cell's position in grid enumeration order.
	Index int
	// Coords holds the per-axis point indices.
	Coords []int
	// Labels holds the per-axis point labels (Labels[i] names the value
	// chosen on Axes[i]).
	Labels []string
	Config C
}

// Name joins the cell's axis labels with "/" — the string -filter
// substring-matches against.
func (c Cell[C]) Name() string { return strings.Join(c.Labels, "/") }

// Size returns the number of cells in the full factorial.
func (g Grid[C]) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Points)
	}
	return n
}

// Cells enumerates the grid row-major (first axis slowest, last axis
// fastest), applying each axis point to a copy of Base in axis order.
func (g Grid[C]) Cells() []Cell[C] {
	out := make([]Cell[C], 0, g.Size())
	coords := make([]int, len(g.Axes))
	for idx := 0; idx < g.Size(); idx++ {
		rem := idx
		for a := len(g.Axes) - 1; a >= 0; a-- {
			coords[a] = rem % len(g.Axes[a].Points)
			rem /= len(g.Axes[a].Points)
		}
		cell := Cell[C]{Index: idx, Coords: append([]int(nil), coords...), Config: g.Base}
		for a, ax := range g.Axes {
			pt := ax.Points[coords[a]]
			cell.Labels = append(cell.Labels, pt.Label)
			if pt.Apply != nil {
				pt.Apply(&cell.Config)
			}
		}
		out = append(out, cell)
	}
	return out
}

// Options tune one engine invocation.
type Options struct {
	// Workers is the pool size; values < 1 run single-threaded. Results
	// are identical at every worker count — only wall-clock changes.
	Workers int
	// Filter, if non-empty, runs only cells whose Name() contains it.
	Filter string
	// Progress, if non-nil, is called after each cell completes (from
	// worker goroutines, serialized by the engine).
	Progress func(done, total int, name string, elapsed time.Duration)
}

// Result pairs one cell's measurement with its identity and wall-clock
// cost. Coords and Labels identify the cell on each axis, so callers
// that aggregate (e.g. averaging over a seed axis) can associate results
// with axis values without re-deriving positions arithmetically. Elapsed
// is real time, not virtual time: it is sweep metadata (the per-row
// elapsed_ms in trajectory files), never a golden-checked simulation
// outcome.
type Result[R any] struct {
	Index   int
	Coords  []int
	Labels  []string
	Name    string
	Value   R
	Elapsed time.Duration
}

// Run executes exec for every (filter-surviving) cell of the grid on a
// pool of opts.Workers goroutines and returns the results in grid order.
// The first exec error (in grid order, not completion order) aborts the
// sweep's result; remaining in-flight cells drain before Run returns.
func Run[C, R any](g Grid[C], opts Options, exec func(Cell[C]) (R, error)) ([]Result[R], error) {
	cells := g.Cells()
	if opts.Filter != "" {
		kept := cells[:0]
		for _, c := range cells {
			if strings.Contains(c.Name(), opts.Filter) {
				kept = append(kept, c)
			}
		}
		cells = kept
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: %w: %q", ErrNoCells, opts.Filter)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]Result[R], len(cells))
	errs := make([]error, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done for the Progress callback
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := cells[i]
				start := time.Now()
				v, err := exec(c)
				elapsed := time.Since(start)
				results[i] = Result[R]{
					Index: c.Index, Coords: c.Coords, Labels: c.Labels,
					Name: c.Name(), Value: v, Elapsed: elapsed,
				}
				errs[i] = err
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, len(cells), c.Name(), elapsed)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", cells[i].Name(), err)
		}
	}
	return results, nil
}

// Values strips the engine metadata from a result slice, preserving grid
// order — the common final step of a sweep that emits plain point rows.
func Values[R any](results []Result[R]) []R {
	out := make([]R, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}
