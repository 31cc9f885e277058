package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/sweep"
)

// This file is the package's one row-emission path: every sweep's points
// go through WriteTrajectory (the BENCH_*.json files), WriteCSV, or the
// per-experiment print function — there is no bespoke emit code left in
// the experiment files.

// The three structs below are the shared tail of the sustained-SMR sweep
// rows; the point types embed them, so their JSON keys sit flat in the
// row like any other field.

// smrStats is the outcome every chain-workload row reports.
type smrStats struct {
	Epochs         int     `json:"epochs"`
	CommittedTxs   int     `json:"committed_txs"`
	VirtualSecs    float64 `json:"virtual_s"`
	ThroughputBps  float64 `json:"throughput_Bps"`
	CommitLatencyS float64 `json:"commit_latency_s"`
}

func (s *smrStats) fill(res *run.Report) {
	s.Epochs = res.Chain.EpochsCommitted
	s.CommittedTxs = res.Chain.CommittedTxs
	s.VirtualSecs = res.Duration.Seconds()
	s.ThroughputBps = res.Chain.ThroughputBps
	s.CommitLatencyS = res.Chain.MeanCommitLatency.Seconds()
}

// provenance is the acceptance bar of the adversarial sweeps: the honest
// nodes committed only genuine client transactions.
type provenance struct {
	HonestSafe bool   `json:"honest_safe"`
	Error      string `json:"error,omitempty"`
}

// audit checks a finished run's logs for forged transactions. run.Run
// already verified agreement and gap-freedom across honest logs; what
// remains is provenance.
func (p *provenance) audit(res *run.Report, txSize int) {
	forged := protocol.CountForged(res.Chain.Logs, txSize, res.Chain.SubmittedTxs)
	p.HonestSafe = forged == 0
	if forged > 0 {
		p.Error = fmt.Sprintf("%d forged transactions committed", forged)
	}
}

// verdict renders the honest-safety column.
func (p provenance) verdict() string {
	if p.HonestSafe {
		return "OK"
	}
	return "FAIL"
}

// outcome renders the measured columns of an SMR sweep row — or, for a
// run the scenario defeated before any epoch committed, what it died of.
func outcome(epochs int, failure, format string, cols ...any) string {
	if failure != "" && epochs == 0 {
		return "FAILED: " + failure
	}
	return fmt.Sprintf(format, cols...)
}

// wallClock is the wall-clock cost of producing a row — sweep metadata,
// not a simulated (golden-checked) outcome.
type wallClock struct {
	ElapsedMS int64 `json:"elapsed_ms"`
}

func (w *wallClock) stamp(d time.Duration) { w.ElapsedMS = d.Milliseconds() }

// stampedRows unwraps a sweep's results into its rows, each stamped with
// what it cost to produce.
func stampedRows[T any, P interface {
	*T
	stamp(time.Duration)
}](results []sweep.Result[T]) []T {
	rows := make([]T, len(results))
	for i, r := range results {
		P(&r.Value).stamp(r.Elapsed)
		rows[i] = r.Value
	}
	return rows
}

// GeneratedWith records how a trajectory file was produced. It is sweep
// metadata, deliberately separate from the points: the golden tests (and
// the determinism guarantee) cover the points only, while workers and the
// Go version may legitimately differ between regenerations that produce
// bit-identical results.
type GeneratedWith struct {
	Workers   int    `json:"workers"`
	GoVersion string `json:"goversion"`
}

// WriteTrajectory writes one sweep's machine-readable record:
//
//	{experiment, seed, generated_with: {workers, goversion}, points: [...]}
//
// points is the sweep's row slice; each row carries its own elapsed_ms.
// Result fields are a pure function of (experiment, seed) — regeneration
// at any worker count reproduces them bit-identically; only the
// generated_with header and the per-row elapsed_ms wall-clock fields
// vary between invocations.
func WriteTrajectory(w io.Writer, experiment string, seed int64, workers int, points any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment    string        `json:"experiment"`
		Seed          int64         `json:"seed"`
		GeneratedWith GeneratedWith `json:"generated_with"`
		Points        any           `json:"points"`
	}{
		Experiment:    experiment,
		Seed:          seed,
		GeneratedWith: GeneratedWith{Workers: workers, GoVersion: runtime.Version()},
		Points:        points,
	})
}

// WriteCSV flattens a slice of point structs into CSV, deriving the
// header from the structs' json tags (the same names the trajectory
// files use; embedded structs contribute their fields like the JSON
// encoding does). Values are rendered with %v; strings containing commas or
// quotes are quoted.
func WriteCSV(w io.Writer, points any) error {
	v := reflect.ValueOf(points)
	if v.Kind() != reflect.Slice {
		return fmt.Errorf("bench: WriteCSV wants a slice, got %T", points)
	}
	if v.Len() == 0 {
		return nil
	}
	st := v.Index(0).Type()
	if st.Kind() != reflect.Struct {
		return fmt.Errorf("bench: WriteCSV wants a slice of structs, got %T", points)
	}
	var cols [][]int
	var header []string
	for _, f := range reflect.VisibleFields(st) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		name := strings.Split(f.Tag.Get("json"), ",")[0]
		if name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		cols = append(cols, f.Index)
		header = append(header, name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for r := 0; r < v.Len(); r++ {
		row := make([]string, len(cols))
		for j, i := range cols {
			row[j] = csvField(fmt.Sprintf("%v", v.Index(r).FieldByIndex(i).Interface()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
