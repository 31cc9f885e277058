package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// contract is BENCHMARK.json: -compare takes each end-to-end metric's
// direction and regression bound from it, and the smoke test checks the
// whole of it against the benchmark's own tables.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// contractPath is relative to the repository root, where run.sh runs the
// binary from.
const contractPath = "BENCHMARK.json"

func loadContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// loadRecords reads a -json file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, the median and the third quartile
// of at least two values, as Python's statistics.quantiles(v, n=4) computes
// them (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// side is one file's values of one metric on one workload, by input seed.
type side map[int64]float64

func (s side) values() []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

// spread is the interquartile distance as a share of the median; NaN when
// the file holds fewer than four runs of the workload.
func (s side) spread() float64 {
	v := s.values()
	if len(v) < 4 {
		return math.NaN()
	}
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(q2)
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians (with run count and quartile spread), the relative difference
// signed so that positive is worse, the bound, and a verdict:
//
//	identical   virtual metric, same seeds, every run equal bit for bit
//	ok          B's median is not worse than A's by more than the bound
//	unresolved  as ok, but a file's own spread is wider than the bound
//	worse       B's median is worse than A's by more than the bound
//
// A virtual metric that is not identical is judged by its bound like a
// host metric and marked "moved". The exit code is 1 if anything is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadContract(contractPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -compare reads the bounds from the repository root:", err)
		return 2
	}
	recs := [2][]record{}
	for i, p := range []string{pathA, pathB} {
		if recs[i], err = loadRecords(p); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	collect := func(rs []record, wl, metric string) side {
		s := side{}
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && r.Trace == 0 {
				s[r.Seed] = m.Value
			}
		}
		return s
	}
	digests := func(rs []record, wl string) map[int64]string {
		out := map[int64]string{}
		for _, r := range rs {
			if r.Workload == wl && r.Trace == 0 {
				out[r.Seed] = r.Digest
			}
		}
		return out
	}

	worse := false
	fmt.Fprintf(stdout, "%-16s %-12s %22s %22s %9s %6s  %s\n", "workload", "metric", "A median (n, spread)", "B median (n, spread)", "diff", "bound", "verdict")
	for _, w := range workloads {
		da, db := digests(recs[0], w.Name), digests(recs[1], w.Name)
		if len(da) == 0 || len(db) == 0 {
			continue
		}
		same, shared := true, 0
		for s, d := range da {
			if e, ok := db[s]; ok {
				shared++
				same = same && d == e
			}
		}
		switch {
		case shared == 0:
			fmt.Fprintf(stdout, "%-16s trajectory_digest: no seed in common\n", w.Name)
		case same:
			fmt.Fprintf(stdout, "%-16s trajectory_digest: identical on %d shared seed(s)\n", w.Name, shared)
		default:
			fmt.Fprintf(stdout, "%-16s trajectory_digest: DIFFERS — the simulated behaviour changed\n", w.Name)
		}
		for _, m := range spec.EndToEnd {
			a, b := collect(recs[0], w.Name, m.Name), collect(recs[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a.values()), median(b.values())
			diff := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			switch {
			case diff > m.Bound:
				verdict, worse = "worse", true
			case a.spread() > m.Bound || b.spread() > m.Bound:
				verdict = "unresolved"
			}
			if clockOf[m.Name] == clockVirtual {
				identical := len(a) == len(b)
				for s, v := range a {
					w, shared := b[s]
					identical = identical && shared && w == v
				}
				if identical {
					verdict = "identical"
				} else {
					verdict += " (moved)"
				}
			}
			fmt.Fprintf(stdout, "%-16s %-12s %22s %22s %+8.2f%% %5.0f%%  %s\n", w.Name, m.Name,
				describe(ma, a), describe(mb, b), 100*diff, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func describe(med float64, s side) string {
	if sp := s.spread(); !math.IsNaN(sp) {
		return fmt.Sprintf("%.5g (%d, %.1f%%)", med, len(s), 100*sp)
	}
	return fmt.Sprintf("%.5g (%d, -)", med, len(s))
}
