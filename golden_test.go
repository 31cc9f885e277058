package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/scenario"
)

// These tests pin the experiment registry to the committed BENCH
// trajectory files. Every row is a pure function of (experiment, seed,
// epochs) — per-cell seeds are a function of grid coordinates and each
// cell owns its scheduler/channel/RNGs (the shared structures,
// crypto.DealCached and the crypto memos, are keyed and race-safe) — so
// worker count and completion order cannot leak into results. Two legs
// check it, both through the same Experiment.Rows the CLI runs, with the
// epoch count left to the registry:
//
//   - TestGoldenSweepsParallelDeterminism regenerates every row of every
//     file on a contended 8-worker pool;
//   - TestGoldenSerialSample re-runs each file's Sample cells on one
//     worker, always — -short and -race included.

type goldenFile struct {
	Experiment string            `json:"experiment"`
	Seed       int64             `json:"seed"`
	Points     []json.RawMessage `json:"points"`
}

func loadGolden(t *testing.T, path string) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return f
}

// checkGolden runs e's filter-selected cells (all of them for "") on the
// given worker count and requires the rows to be, in grid order, rows of
// the committed file: bit-identical in every field but elapsed_ms.
func checkGolden(t *testing.T, e bench.Experiment, workers int, filter string) {
	golden := loadGolden(t, e.Golden)
	rows, err := e.Rows(&bench.Context{Seed: golden.Seed, Workers: workers, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	got, want := canonicalPoints(t, marshalPoints(t, rows)), canonicalPoints(t, golden.Points)
	if filter == "" && len(got) != len(want) {
		t.Fatalf("got %d rows, golden has %d", len(got), len(want))
	}
	next := 0
	for i, row := range got {
		from := next
		for next < len(want) && !reflect.DeepEqual(row, want[next]) {
			next++
		}
		if next == len(want) {
			t.Fatalf("row %d is not a row of %s at or after its row %d:\n got %v", i, e.Golden, from, row)
		}
		next++
	}
}

// goldens runs check once per registry entry that names a committed file.
func goldens(t *testing.T, check func(*testing.T, bench.Experiment)) {
	for _, e := range bench.Experiments() {
		if e.Golden != "" {
			t.Run(e.Golden, func(t *testing.T) {
				t.Parallel()
				check(t, e)
			})
		}
	}
}

// TestGoldenSweepsParallelDeterminism is the sweep engine's acceptance
// gate: every committed BENCH trajectory must reproduce bit-identically,
// every row, from concurrently executing cells.
func TestGoldenSweepsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all six BENCH trajectories")
	}
	if raceEnabled {
		t.Skip("full regenerations are ~10x slower under -race; the serial sample and the smoke sweeps cover the same paths")
	}
	goldens(t, func(t *testing.T, e bench.Experiment) { checkGolden(t, e, 8, "") })
}

// TestGoldenSerialSample re-runs each golden's Sample cells serially. It
// is also the regeneration check: the epoch count comes from the registry
// entry, exactly as it does for `wbft-bench -exp NAME -json FILE`.
func TestGoldenSerialSample(t *testing.T) {
	goldens(t, func(t *testing.T, e bench.Experiment) { checkGolden(t, e, 1, e.Sample) })
}

// TestGoldenFaultEventsInsideRuns: every scripted event of every row of
// the fault sweep starts before that row's run ends. An event scripted
// past the end of a fast engine's run leaves its row a copy of the
// fault-free one, measuring nothing.
func TestGoldenFaultEventsInsideRuns(t *testing.T) {
	for _, raw := range loadGolden(t, "BENCH_faults.json").Points {
		var row struct {
			Scenario, Spec, Protocol, Transport string
			VirtualS                            float64 `json:"virtual_s"`
		}
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatal(err)
		}
		plan, err := scenario.Parse(row.Spec)
		if err != nil {
			t.Fatalf("%s %s/%s: %v", row.Scenario, row.Protocol, row.Transport, err)
		}
		end := time.Duration(row.VirtualS * float64(time.Second))
		for _, ev := range plan.Events {
			if ev.At >= end {
				t.Errorf("%s %s/%s: %s starts after the run ends at %v",
					row.Scenario, row.Protocol, row.Transport, ev, end)
			}
		}
	}
}

// TestRegistryGoldens: the registry and the repository root name the same
// trajectory files, one entry each, and every entry records what its file
// was generated from.
func TestRegistryGoldens(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]string{}
	for _, e := range bench.Experiments() {
		if e.Golden == "" {
			continue
		}
		if prior, dup := owner[e.Golden]; dup {
			t.Errorf("%s is named by both %s and %s", e.Golden, prior, e.Name)
		}
		owner[e.Golden] = e.Name
		if e.Epochs <= 0 || e.Sample == "" {
			t.Errorf("%s: entry for %s records epochs %d, sample %q", e.Name, e.Golden, e.Epochs, e.Sample)
		}
		if _, err := os.Stat(e.Golden); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		} else if f := loadGolden(t, e.Golden); f.Experiment != e.Record {
			t.Errorf("%s: %s is a %q record, the entry emits %q", e.Name, e.Golden, f.Experiment, e.Record)
		}
	}
	for _, f := range files {
		if owner[f] == "" {
			t.Errorf("%s is named by no registry entry", f)
		}
	}
}

// canonicalPoints decodes trajectory points and strips the documented
// volatile field (elapsed_ms is wall-clock sweep metadata, not a
// simulated outcome).
func canonicalPoints(t *testing.T, raws []json.RawMessage) []map[string]any {
	t.Helper()
	out := make([]map[string]any, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatal(err)
		}
		delete(out[i], "elapsed_ms")
	}
	return out
}

// marshalPoints round-trips a sweep's row slice through JSON, yielding
// the same representation the committed trajectory files use.
func marshalPoints(t *testing.T, rows any) []json.RawMessage {
	t.Helper()
	blob, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(blob, &raws); err != nil {
		t.Fatal(err)
	}
	return raws
}
