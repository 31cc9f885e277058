package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
)

// seedRun is one timed run.Run of a workload at one seed.
type seedRun struct {
	Seed    int64
	Target  int // epochs the run had to commit
	Report  *run.Report
	Host    time.Duration
	Alloc   uint64 // MemStats.TotalAlloc delta, bytes
	Mallocs uint64 // MemStats.Mallocs delta
	Digest  [32]byte
	// Violation is empty when the run's outputs passed every check.
	Violation string
}

// timedRun executes the Spec on the calling goroutine with a collected heap
// and checks its outputs.
func timedRun(w workload, spec run.Spec) seedRun {
	r := seedRun{Seed: spec.Seed, Target: spec.Workload.Epochs}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := run.Run(spec)
	r.Host = time.Since(start)
	runtime.ReadMemStats(&after)
	r.Alloc = after.TotalAlloc - before.TotalAlloc
	r.Mallocs = after.Mallocs - before.Mallocs
	if err != nil {
		r.Violation = err.Error()
		return r
	}
	r.Report = rep
	r.Digest = reportDigest(rep)
	r.Violation = checkReport(w, spec, rep)
	return r
}

// checkReport is the output check: liveness to the target, transaction
// provenance, and on the clustered topology a non-empty certified
// cross-cluster order. Log agreement, gap-freedom and cut provenance are
// checked inside run.Run and arrive as its error.
func checkReport(w workload, spec run.Spec, rep *run.Report) string {
	c := rep.Chain
	if c == nil {
		return "report has no chain section"
	}
	if c.EpochsCommitted < spec.Workload.Epochs {
		return fmt.Sprintf("committed %d epochs, target %d", c.EpochsCommitted, spec.Workload.Epochs)
	}
	if n := protocol.CountForged(c.Logs, spec.Workload.TxSize, c.SubmittedTxs); n != 0 {
		return fmt.Sprintf("%d committed transactions are not client submissions", n)
	}
	if w.Clustered {
		t := rep.Tiers
		if t == nil || t.OrderedCuts <= 0 {
			return "no cluster cut reached the global order"
		}
		if t.CutCerts == nil || t.CutCerts.RejectedCuts != 0 {
			return "cut certificates were rejected in a fault-free run"
		}
	}
	return ""
}

// reportDigest hashes everything a run produced on the virtual clock: the
// Report's stable JSON plus the two sections that JSON omits, the raw
// per-transaction latency sample and the committed logs.
func reportDigest(rep *run.Report) [32]byte {
	h := sha256.New()
	raw, err := json.Marshal(rep)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encoding report: %v", err)) // plain data; cannot fail
	}
	h.Write(raw)
	if c := rep.Chain; c != nil {
		var b [8]byte
		for _, d := range c.TxLatencySample {
			binary.BigEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
		for node, log := range c.Logs {
			binary.BigEndian.PutUint64(b[:], uint64(node))
			h.Write(b[:])
			for _, e := range log {
				binary.BigEndian.PutUint64(b[:], uint64(e.Epoch))
				h.Write(b[:])
				h.Write(protocol.EncodeBatch(e.Txs))
			}
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// trajectoryDigest folds the per-seed digests into one string: two builds
// agree on every virtual metric of a run exactly when this agrees.
func trajectoryDigest(runs []seedRun) string {
	h := sha256.New()
	for _, r := range runs {
		h.Write(r.Digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Set-up sampling: one sample is what has to happen before the timed runs
// of all seeds can start — dealing each seed's keys and a one-epoch warm-up
// run of the same Spec. It is tens of milliseconds, so after the timed runs
// it is repeated on throwaway seeds (whose deals miss crypto.DealCached
// like the first did) and the median is reported. After, not before: the
// dealt keys stay cached for the life of the process, and a live heap
// grown by a machine-dependent number of repeats moved the timed runs by
// 5 % through the collector's pacing.
const (
	setupMinSamples = 3
	setupMaxSamples = 41
)

// throwawayStride separates the throwaway set-up seeds from every seed a
// timed run uses.
const throwawayStride = 1_000_003

// setupSample sets the seeds up once, shifted onto the k-th throwaway
// block (k = 0: the seeds themselves), and returns how long that took.
func setupSample(w workload, z sizing, seeds []int64, k int) (seconds float64, err error) {
	runtime.GC()
	start := time.Now()
	for _, s := range seeds {
		if err := warmUp(z.spec(w, s+int64(k)*throwawayStride)); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// resampleSetup repeats the set-up on throwaway seeds until the budget is
// spent and returns the median of all samples, the first included.
func resampleSetup(w workload, z sizing, seeds []int64, first float64) (float64, error) {
	samples := []float64{first}
	began := time.Now()
	for k := 1; k < setupMaxSamples; k++ {
		if k >= setupMinSamples && time.Since(began) > z.SetupBudget {
			break
		}
		d, err := setupSample(w, z, seeds, k)
		if err != nil {
			return 0, err
		}
		samples = append(samples, d)
	}
	return median(samples), nil
}

// warmUp deals the Spec's keys and runs one epoch of it.
func warmUp(spec run.Spec) error {
	spec.Workload.Epochs = 1
	if _, err := run.Run(spec); err != nil {
		return fmt.Errorf("set-up run: %w", err)
	}
	return nil
}

// unloadedCost estimates the host's cost per unit of work from one
// measurement per seed. Whatever else the box is doing only ever adds time,
// and on the reference box it adds 10 % and more for seconds at a stretch,
// so the estimate is the lower quartile, not the mean: it stays put while
// fewer than three quarters of the seeds are slowed.
func unloadedCost(perUnit []float64) float64 {
	if len(perUnit) == 1 {
		return perUnit[0]
	}
	q1, _, _ := quartiles(perUnit)
	return q1
}

// ratio is a/b, and 0 for the empty denominator only a run too short to be
// a measurement can have.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is what one invocation reports besides its metrics.
type outcome struct {
	Metrics    Metrics
	Attempted  int
	Failed     int
	Violations []string
	Digest     string
	Epochs     int
	Seeds      []int64
	SeedHostS  []float64 // each seed's timed run, for the environment block
	TxSamples  int
}

// runEndToEnd is the -trace 0 path: set up, run every seed once, untraced,
// and reduce the Reports to the end-to-end metrics.
func runEndToEnd(w workload, seed int64, z sizing) outcome {
	seeds := seedsFor(seed, z.Seeds)
	out := outcome{Metrics: Metrics{}, Epochs: z.epochs(w), Seeds: seeds}
	setupFailed := func(err error) outcome {
		out.Attempted, out.Failed = len(seeds)*out.Epochs, len(seeds)*out.Epochs
		out.Violations = append(out.Violations, err.Error())
		return out
	}
	setup, err := setupSample(w, z, seeds, 0)
	if err != nil {
		return setupFailed(err)
	}
	runs := make([]seedRun, len(seeds))
	for i, s := range seeds {
		runs[i] = timedRun(w, z.spec(w, s))
	}
	out.Digest = trajectoryDigest(runs)
	if setup, err = resampleSetup(w, z, seeds, setup); err != nil {
		return setupFailed(err)
	}

	var perFrame []float64 // host seconds per delivered frame, by seed
	var alloc, committedBytes, airBytes, frames uint64
	var dur, commit time.Duration
	var epochs, submitted, rejected, ok int
	var lat []time.Duration
	for _, r := range runs {
		out.Attempted += r.Target
		if r.Violation != "" {
			out.Failed += r.Target
			out.Violations = append(out.Violations, fmt.Sprintf("seed %d: %s", r.Seed, r.Violation))
		}
		out.SeedHostS = append(out.SeedHostS, r.Host.Seconds())
		alloc += r.Alloc
		if r.Report == nil {
			continue
		}
		ok++
		perFrame = append(perFrame, r.Host.Seconds()/float64(r.Report.Frames))
		frames += r.Report.Frames
		c := r.Report.Chain
		dur += r.Report.Duration
		epochs += c.EpochsCommitted
		commit += c.MeanCommitLatency
		committedBytes += c.CommittedBytes
		airBytes += r.Report.BytesOnAir
		submitted += c.SubmittedTxs
		rejected += c.AdmissionRejected
		lat = append(lat, c.TxLatencySample...)
	}
	if ok == 0 {
		return out
	}
	m := out.Metrics
	m.set("setup_s", setup)
	m.set("host_s", unloadedCost(perFrame)*float64(frames))
	m.set("alloc_mb", float64(alloc)/1e6)
	m.set("epoch_vs", dur.Seconds()/float64(epochs))
	m.set("commit_vs", commit.Seconds()/float64(ok))
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		m.set("tx_p50_vs", run.Percentile(lat, 0.50).Seconds())
		m.set("tx_p99_vs", run.Percentile(lat, 0.99).Seconds())
	} else {
		// The clustered driver exposes no per-transaction sample; the
		// epoch-granularity commit latency stands in under both names.
		m.set("tx_p50_vs", m["commit_vs"].Value)
		m.set("tx_p99_vs", m["commit_vs"].Value)
	}
	out.TxSamples = len(lat)
	m.set("goodput_Bps", float64(committedBytes)/dur.Seconds())
	m.set("airtime_eff", float64(committedBytes)/float64(airBytes))
	m.set("admit_share", 1-ratio(float64(rejected), float64(submitted)))
	return out
}
