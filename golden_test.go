package repro

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// These tests pin the unified run API to the committed BENCH trajectory
// files: selected honest-path points of BENCH_chain.json,
// BENCH_faults.json, and BENCH_byz.json are re-run through run.Run and
// every recorded number must reproduce bit-identically.

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

// eq asserts exact equality of a recorded float (the JSON files carry
// float64; equality is exact because both sides round-trip the same way).
func eq(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Errorf("%s: got %v, want %v (golden)", what, got, want)
	}
}

func protoByName(t *testing.T, name string) (protocol.Kind, protocol.CoinKind) {
	t.Helper()
	for _, v := range protocol.Variants() {
		if v.Name == name {
			return v.Kind, v.Coin
		}
	}
	t.Fatalf("unknown protocol name %q in golden file", name)
	return "", ""
}

// TestGoldenChainBitIdentical re-runs the HB-SC batched rows of
// BENCH_chain.json (all three pipeline depths) through run.Run.
func TestGoldenChainBitIdentical(t *testing.T) {
	f := loadGolden(t, "BENCH_chain.json")
	matched := 0
	for _, rawPt := range f.Points {
		var pt struct {
			Protocol       string  `json:"protocol"`
			Transport      string  `json:"transport"`
			Depth          int     `json:"depth"`
			Epochs         int     `json:"epochs"`
			CommittedTxs   int     `json:"committed_txs"`
			CommittedBytes uint64  `json:"committed_bytes"`
			VirtualSecs    float64 `json:"virtual_s"`
			ThroughputBps  float64 `json:"throughput_Bps"`
			CommitLatencyS float64 `json:"commit_latency_s"`
			Accesses       uint64  `json:"accesses"`
			DedupDropped   int     `json:"dedup_dropped"`
		}
		if err := json.Unmarshal(rawPt, &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Protocol != "HB-SC" || pt.Transport != "batched" {
			continue
		}
		matched++
		kind, coin := protoByName(t, pt.Protocol)
		spec := run.Defaults(kind, coin)
		spec.Seed = f.Seed
		spec.Workload = run.Chain(pt.Epochs)
		spec.Workload.Window = pt.Depth
		spec.Workload.TxInterval = time.Second
		res, err := run.Run(spec)
		if err != nil {
			t.Fatalf("depth %d: %v", pt.Depth, err)
		}
		if res.Chain.EpochsCommitted != pt.Epochs ||
			res.Chain.CommittedTxs != pt.CommittedTxs ||
			res.Chain.CommittedBytes != pt.CommittedBytes ||
			res.Accesses != pt.Accesses ||
			res.Chain.DedupDropped != pt.DedupDropped {
			t.Errorf("depth %d: counters diverge from golden: %+v vs %+v", pt.Depth, res.Chain, pt)
		}
		eq(t, "virtual_s", res.Duration.Seconds(), pt.VirtualSecs)
		eq(t, "throughput_Bps", res.Chain.ThroughputBps, pt.ThroughputBps)
		eq(t, "commit_latency_s", res.Chain.MeanCommitLatency.Seconds(), pt.CommitLatencyS)
	}
	if matched != 3 {
		t.Fatalf("matched %d golden rows, want 3 (depths 1/2/4)", matched)
	}
}

// TestGoldenFaultsBitIdentical re-runs the honest-path (fault-free) and
// crash-recover HB-SC batched rows of BENCH_faults.json, reconstructing
// each scenario from the recorded DSL.
func TestGoldenFaultsBitIdentical(t *testing.T) {
	f := loadGolden(t, "BENCH_faults.json")
	matched := 0
	for _, rawPt := range f.Points {
		var pt struct {
			Scenario       string  `json:"scenario"`
			Spec           string  `json:"spec"`
			Protocol       string  `json:"protocol"`
			Transport      string  `json:"transport"`
			Epochs         int     `json:"epochs"`
			CommittedTxs   int     `json:"committed_txs"`
			VirtualSecs    float64 `json:"virtual_s"`
			ThroughputBps  float64 `json:"throughput_Bps"`
			CommitLatencyS float64 `json:"commit_latency_s"`
			Accesses       uint64  `json:"accesses"`
			Collisions     uint64  `json:"collisions"`
			Error          string  `json:"error"`
		}
		if err := json.Unmarshal(rawPt, &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Protocol != "HB-SC" || pt.Transport != "batched" || pt.Error != "" {
			continue
		}
		if pt.Scenario != "fault-free" && pt.Scenario != "crash-recover" {
			continue
		}
		matched++
		plan, err := scenario.Parse(pt.Spec)
		if err != nil {
			t.Fatalf("%s: recorded spec does not parse: %v", pt.Scenario, err)
		}
		kind, coin := protoByName(t, pt.Protocol)
		spec := run.Defaults(kind, coin)
		spec.Seed = f.Seed
		spec.Workload = run.Chain(pt.Epochs)
		spec.Workload.TxInterval = time.Second
		spec.Workload.GCLag = pt.Epochs
		spec.Scenario = plan
		res, err := run.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", pt.Scenario, err)
		}
		if res.Chain.CommittedTxs != pt.CommittedTxs || res.Accesses != pt.Accesses ||
			res.Collisions != pt.Collisions {
			t.Errorf("%s: counters diverge from golden", pt.Scenario)
		}
		eq(t, pt.Scenario+" virtual_s", res.Duration.Seconds(), pt.VirtualSecs)
		eq(t, pt.Scenario+" throughput_Bps", res.Chain.ThroughputBps, pt.ThroughputBps)
		eq(t, pt.Scenario+" commit_latency_s", res.Chain.MeanCommitLatency.Seconds(), pt.CommitLatencyS)
	}
	if matched != 2 {
		t.Fatalf("matched %d golden rows, want 2 (fault-free, crash-recover)", matched)
	}
}

// TestGoldenByzBitIdentical re-runs the garbage-behavior HB-SC batched
// row of BENCH_byz.json — same numbers, same honest-safety verdict.
func TestGoldenByzBitIdentical(t *testing.T) {
	f := loadGolden(t, "BENCH_byz.json")
	matched := 0
	for _, rawPt := range f.Points {
		var pt struct {
			Behavior      string  `json:"behavior"`
			Spec          string  `json:"spec"`
			Protocol      string  `json:"protocol"`
			Transport     string  `json:"transport"`
			Epochs        int     `json:"epochs"`
			CommittedTxs  int     `json:"committed_txs"`
			VirtualSecs   float64 `json:"virtual_s"`
			ThroughputBps float64 `json:"throughput_Bps"`
			RejectedMsgs  uint64  `json:"rejected_msgs"`
			HonestSafe    bool    `json:"honest_safe"`
		}
		if err := json.Unmarshal(rawPt, &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Behavior != "garbage" || pt.Protocol != "HB-SC" || pt.Transport != "batched" {
			continue
		}
		matched++
		plan, err := scenario.Parse(pt.Spec)
		if err != nil {
			t.Fatal(err)
		}
		kind, coin := protoByName(t, pt.Protocol)
		spec := run.Defaults(kind, coin)
		spec.Seed = f.Seed
		spec.Workload = run.Chain(pt.Epochs)
		spec.Workload.TxInterval = time.Second
		spec.Workload.GCLag = pt.Epochs
		spec.Scenario = plan
		res, err := run.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chain.CommittedTxs != pt.CommittedTxs || res.Rejected != pt.RejectedMsgs {
			t.Errorf("garbage row diverges from golden: txs %d/%d rejected %d/%d",
				res.Chain.CommittedTxs, pt.CommittedTxs, res.Rejected, pt.RejectedMsgs)
		}
		eq(t, "virtual_s", res.Duration.Seconds(), pt.VirtualSecs)
		eq(t, "throughput_Bps", res.Chain.ThroughputBps, pt.ThroughputBps)
		forged := protocol.CountForged(res.Chain.Logs, spec.Workload.TxSize, res.Chain.SubmittedTxs)
		if safe := forged == 0; safe != pt.HonestSafe {
			t.Errorf("honest-safety verdict flipped: got %v, golden %v", safe, pt.HonestSafe)
		}
	}
	if matched != 1 {
		t.Fatalf("matched %d golden rows, want 1", matched)
	}
}

// TestGoldenSweepsParallelDeterminism is the sweep engine's acceptance
// gate: every committed BENCH trajectory must reproduce bit-identically
// at -parallel 1 and -parallel 8. Per-cell seeds are a pure function of
// grid coordinates and each cell owns its scheduler/channel/RNGs (the
// one shared structure, crypto.DealCached, is keyed and race-safe), so
// worker count and completion order cannot leak into results. Only the
// per-row elapsed_ms wall-clock metadata is exempt — it is the one field
// documented as volatile.
func TestGoldenSweepsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all six BENCH trajectories twice")
	}
	if raceEnabled {
		t.Skip("full regenerations are ~10x slower under -race; the smoke sweeps cover the same concurrent paths")
	}
	cases := []struct {
		file string
		run  func(seed int64, workers int) (any, error)
	}{
		// Epochs per sweep match the regeneration commands in
		// EXPERIMENTS.md (chain-epochs 10/12/8/4/12/6).
		{"BENCH_chain.json", func(seed int64, w int) (any, error) {
			return bench.ChainThroughput(seed, 10, sweep.Options{Workers: w})
		}},
		{"BENCH_faults.json", func(seed int64, w int) (any, error) {
			return bench.FaultSweep(seed, 12, sweep.Options{Workers: w})
		}},
		{"BENCH_byz.json", func(seed int64, w int) (any, error) {
			return bench.ByzSweep(seed, 8, sweep.Options{Workers: w})
		}},
		{"BENCH_mhchain.json", func(seed int64, w int) (any, error) {
			return bench.MHChainSweep(seed, 4, sweep.Options{Workers: w})
		}},
		{"BENCH_alea.json", func(seed int64, w int) (any, error) {
			return bench.AleaSweep(seed, 12, sweep.Options{Workers: w})
		}},
		{"BENCH_traffic.json", func(seed int64, w int) (any, error) {
			return bench.TrafficSweep(seed, 6, sweep.Options{Workers: w})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			golden := loadGolden(t, tc.file)
			want := make([]map[string]any, len(golden.Points))
			for i, raw := range golden.Points {
				want[i] = canonicalPoint(t, raw)
			}
			for _, workers := range []int{1, 8} {
				rows, err := tc.run(golden.Seed, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				raws := marshalPoints(t, rows)
				if len(raws) != len(want) {
					t.Fatalf("workers=%d: got %d rows, golden has %d", workers, len(raws), len(want))
				}
				for i, raw := range raws {
					got := canonicalPoint(t, raw)
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("workers=%d row %d diverges from golden:\n got  %v\n want %v",
							workers, i, got, want[i])
					}
				}
			}
		})
	}
}

// canonicalPoint decodes one trajectory point and strips the documented
// volatile field (elapsed_ms is wall-clock sweep metadata, not a
// simulated outcome).
func canonicalPoint(t *testing.T, raw json.RawMessage) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms")
	return m
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
