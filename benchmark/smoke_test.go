package main

import (
	"math"
	"regexp"
	"testing"
)

// smokeSizing is the smallest run of everything: 2 epochs, 1 seed, every
// rig at one iteration.
var smokeSizing = sizing{EpochScale: 0, Seeds: 1, RigScale: 0}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesCode keeps BENCHMARK.json and the benchmark's own
// tables in step: same workloads with the same reasons, same metric names
// and units, the run length the epoch counts are sized for.
func TestContractMatchesCode(t *testing.T) {
	b, err := loadContract("../" + contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the workloads are sized for %d", b.RunSeconds, refSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, b.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.Name)
		}
	}
	listed := map[string]string{}
	for _, m := range b.EndToEnd {
		listed[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		listed[m.Name] = m.Unit
	}
	if want := len(endToEnd) + len(perLayer); len(listed) != want {
		t.Errorf("BENCHMARK.json lists %d metrics, the benchmark defines %d", len(listed), want)
	}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if unit, ok := listed[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s (%s): missing from BENCHMARK.json or listed with unit %q", d.Name, d.Unit, unit)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
			}
		}
	}
}

func checkMetrics(t *testing.T, out outcome, want []metricDef) {
	t.Helper()
	for _, v := range out.Violations {
		t.Errorf("violation: %s", v)
	}
	if out.Attempted < 1 || out.Failed != 0 {
		t.Errorf("attempted %d, failed %d", out.Attempted, out.Failed)
	}
	for _, d := range want {
		m, ok := out.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s was not emitted", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v is not finite", d.Name, m.Value)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d defined", len(out.Metrics), len(want))
	}
}

// TestSmokeEndToEnd runs every workload's untraced path at the smallest
// size and checks that each end-to-end metric comes out.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		out := runEndToEnd(w, 1, smokeSizing)
		checkMetrics(t, out, endToEnd)
		if len(out.Digest) != 64 {
			t.Errorf("%s: trajectory digest %q", w.Name, out.Digest)
		}
	}
}

// TestSmokeLayers runs every workload's per-layer path: derived metrics,
// the traced repeat (in process: the test binary is not the benchmark) and
// every rig at one iteration.
func TestSmokeLayers(t *testing.T) {
	tr := newTracer()
	for i, w := range workloads {
		tr.workload = w.Name
		out := runLayers(w, 1, smokeSizing, tr, tracedInProcess)
		checkMetrics(t, out, perLayer)
		if i == 0 && len(tr.spans) < 10 {
			t.Errorf("%d spans recorded, want the set-up, the runs, the check and one per rig", len(tr.spans))
		}
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs || s.Workload == "" || s.Name == "" {
			t.Errorf("malformed span %+v", s)
		}
	}
}
