// Command benchmark is the repository's layered, two-clock benchmark: four
// long SMR workloads measured end to end on the host clock (wall time,
// allocation) and on the virtual clock (the simulated protocol's latency,
// throughput and airtime), rigs that time each internal package from
// outside, and one traced repeat per workload that attributes host CPU to
// layers. README.md in this directory documents workloads, metrics and
// predictions; BENCHMARK.json at the repository root is the contract a
// driver runs it under.
//
// Usage (through run.sh, which builds the binary inside the checkout):
//
//	benchmark [-workload NAME|all] [-seed N] [-seconds N] [-trace 0|1]
//	          [-json FILE] [-spans FILE]
//	benchmark -compare A.jsonl B.jsonl
//
// One invocation with -workload NAME prints every metric by name with its
// unit and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. -workload all runs
// every workload in both modes. -json appends one record per
// (workload, mode) to FILE, environment block included; -compare reads two
// such files. The exit code is non-zero when any output check fails.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/run"
)

// gcPercent matches cmd/wbft-bench: the simulations churn short-lived
// objects over a tiny live heap, so the default target collects far too
// eagerly. It is fixed in code (GOGC is ignored) so host numbers compare.
const gcPercent = 400

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed; the simulation seeds are derived from it")
	seconds := fs.Int("seconds", refSeconds, "run length the work is sized for, on the reference box")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, rigs and the traced run")
	jsonPath := fs.String("json", "", "append one record per (workload, mode) to this JSON-lines file")
	spansPath := fs.String("spans", "", "write the benchmark's spans of the traced runs to this file")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments")
	child := fs.Bool("traced-child", false, "internal: run the traced repeat of -workload and print its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two -json files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	type job struct {
		w     workload
		trace int
	}
	var jobs []job
	if *name == "all" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, 0}, job{w, 1})
		}
	} else {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		jobs = append(jobs, job{w, *trace})
	}

	debug.SetGCPercent(gcPercent)
	z := sizingFor(*seconds)
	if *child {
		return tracedChildMain(jobs[0].w, *seed, z, stdout, stderr)
	}
	code := 0
	tr := newTracer()
	for _, j := range jobs {
		start := time.Now()
		var out outcome
		if j.trace == 0 {
			out = runEndToEnd(j.w, *seed, z)
		} else {
			tr.workload = j.w.Name
			out = runLayers(j.w, *seed, z, tr, tracedInChild(*seed, *seconds))
		}
		rec := newRecord(j.w, *seed, *seconds, j.trace, out, time.Since(start))
		printOutcome(stdout, rec)
		if !rec.Correct {
			code = 1
		}
		if *jsonPath != "" {
			if err := appendRecord(*jsonPath, rec); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, tr.spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// tracedResult is what the traced repeat of a run hands back.
type tracedResult struct {
	HostNs    int64              `json:"host_ns"`
	Digest    string             `json:"digest"`
	Violation string             `json:"violation,omitempty"`
	Shares    map[string]float64 `json:"shares"`
}

// tracedInProcess warms up, then repeats the run under a runtime/pprof CPU
// profile and attributes the samples to layers.
func tracedInProcess(w workload, spec run.Spec) (tracedResult, error) {
	if err := warmUp(spec); err != nil {
		return tracedResult{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tracedResult{}, fmt.Errorf("CPU profile: %w", err)
	}
	r := timedRun(w, spec)
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return tracedResult{}, err
	}
	return tracedResult{HostNs: r.Host.Nanoseconds(), Digest: hex.EncodeToString(r.Digest[:]),
		Violation: r.Violation, Shares: shares}, nil
}

// tracedInChild runs the traced repeat in a fresh process of this binary.
// The threshold-crypto packages memoize per dealt key for the life of a
// process, and one seed always deals the same keys, so a second run of the
// seed in this process would start from warm caches the first run filled
// and finish a fifth faster. The child starts as cold as the untraced run
// did, which is what makes the two host times comparable.
func tracedInChild(seed int64, seconds int) func(workload, run.Spec) (tracedResult, error) {
	return func(w workload, _ run.Spec) (tracedResult, error) {
		var res tracedResult
		self, err := os.Executable()
		if err != nil {
			return res, err
		}
		cmd := exec.Command(self, "-traced-child", "-workload", w.Name,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return res, fmt.Errorf("traced child: %w", err)
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return res, fmt.Errorf("traced child's result: %w", err)
		}
		return res, nil
	}
}

// tracedChildMain is the child's side of tracedInChild.
func tracedChildMain(w workload, seed int64, z sizing, stdout, stderr io.Writer) int {
	res, err := tracedInProcess(w, z.layerSpec(w, seed))
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runLayers is the -trace 1 path: one untraced run of layerSeed, its
// traced repeat, the per-workload layer metrics derived from the two, and
// the workload-independent layer rigs.
func runLayers(w workload, seed int64, z sizing, tr *tracer, runTraced func(workload, run.Spec) (tracedResult, error)) outcome {
	defer tr.begin("workload")()
	spec := z.layerSpec(w, seed)
	s := spec.Seed
	out := outcome{Metrics: Metrics{}, Epochs: spec.Workload.Epochs, Seeds: []int64{s}}
	out.Attempted = 2 * out.Epochs // the untraced and the traced run
	fail := func(msg string) outcome {
		out.Failed = out.Attempted
		out.Violations = append(out.Violations, msg)
		return out
	}
	end := tr.begin("setup")
	err := warmUp(spec)
	end()
	if err != nil {
		return fail(err.Error())
	}

	end = tr.begin("run")
	plain := timedRun(w, spec)
	end()

	end = tr.begin("run:traced")
	traced, err := runTraced(w, spec)
	end()
	if err != nil {
		return fail(err.Error())
	}

	end = tr.begin("verify")
	for _, v := range []string{plain.Violation, traced.Violation} {
		if v != "" {
			out.Failed += out.Epochs
			out.Violations = append(out.Violations, fmt.Sprintf("seed %d: %s", s, v))
		}
	}
	if out.Failed == 0 && hex.EncodeToString(plain.Digest[:]) != traced.Digest {
		// Same Spec, same seed, same binary: anything else is lost determinism.
		out.Failed = out.Attempted
		out.Violations = append(out.Violations, "traced run's report digest differs from the untraced run's")
	}
	end()
	if out.Failed != 0 {
		return out
	}
	out.Digest = trajectoryDigest([]seedRun{plain})

	m := out.Metrics
	rep, c := plain.Report, plain.Report.Chain
	epochs := float64(c.EpochsCommitted)
	m.set("wireless.collision_share", float64(rep.Collisions)/float64(rep.Accesses))
	m.set("wireless.accesses_per_epoch", float64(rep.Accesses)/epochs)
	m.set("wireless.air_bytes_per_epoch", float64(rep.BytesOnAir)/epochs)
	// Summed over every channel of the deployment: up to 5 when clustered.
	m.set("wireless.air_util", float64(rep.BytesOnAir)*8/spec.Net.BitRate/rep.Duration.Seconds())
	m.set("core.logical_per_epoch", float64(rep.LogicalSent)/epochs)
	m.set("crypto.sign_ops_per_epoch", float64(rep.SignOps)/epochs)
	m.set("crypto.verify_ops_per_epoch", float64(rep.VerifyOps)/epochs)
	m.set("protocol.mempool.reject_share", ratio(float64(c.AdmissionRejected), float64(c.SubmittedTxs)))
	hostUs := float64(plain.Host.Microseconds())
	m.set("run.host_us_per_epoch", hostUs/epochs)
	m.set("run.host_us_per_frame", hostUs/float64(rep.Frames))
	m.set("run.mallocs_per_frame", float64(plain.Mallocs)/float64(rep.Frames))
	m.set("run.virt_s_per_host_s", rep.Duration.Seconds()/plain.Host.Seconds())
	m.set("run.trace_overhead", float64(traced.HostNs)/float64(plain.Host.Nanoseconds())-1)
	for _, b := range cpuBuckets {
		m.set("run.cpu_share."+b, traced.Shares[b])
	}

	rg := &rigs{scale: z.RigScale, seed: seed, tr: tr, m: m}
	if err := rg.runAll(); err != nil {
		return fail(err.Error())
	}
	return out
}

// env is the environment block: numbers from different machines, Go
// versions or sizes must never be compared silently.
type env struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	GCPercent  int       `json:"gc_percent"`
	Seeds      []int64   `json:"seeds"`
	SeedHostS  []float64 `json:"seed_host_s,omitempty"`
	Epochs     int       `json:"epochs"`
	TxSamples  int       `json:"tx_samples"`
	WallS      float64   `json:"wall_s"`
}

// result is the driver's result line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// record is one (workload, mode) result as appended to the -json file: the
// result line's fields and what is needed to compare it with another.
type record struct {
	result

	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	Digest     string   `json:"trajectory_digest"`
	Violations []string `json:"violations,omitempty"`
	Env        env      `json:"env"`
}

func newRecord(w workload, seed int64, seconds, trace int, out outcome, wall time.Duration) record {
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	// A metric that could not be measured is a failed check, not a gap.
	for _, d := range want {
		m, ok := out.Metrics[d.Name]
		switch {
		case !ok && len(out.Violations) == 0:
			out.Violations = append(out.Violations, "metric "+d.Name+" was not measured")
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			out.Violations = append(out.Violations, "metric "+d.Name+" is not finite")
			out.Metrics.set(d.Name, 0) // keeps the result line encodable
		}
	}
	return record{
		result: result{Correct: len(out.Violations) == 0, Attempted: out.Attempted,
			Failed: out.Failed, Metrics: out.Metrics},
		Workload:   w.Name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Digest:     out.Digest,
		Violations: out.Violations,
		Env: env{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GCPercent:  gcPercent,
			Seeds:      out.Seeds,
			SeedHostS:  out.SeedHostS,
			Epochs:     out.Epochs,
			TxSamples:  out.TxSamples,
			WallS:      wall.Seconds(),
		},
	}
}

// printOutcome prints every metric by name with its unit and clock, the
// facts a reader needs beside them, and the result line last.
func printOutcome(w io.Writer, rec record) {
	mode := "end-to-end, untraced"
	if rec.Trace == 1 {
		mode = "per-layer: derived, traced run, rigs"
	}
	fmt.Fprintf(w, "# %s  seed=%d seconds=%d  %s\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	fmt.Fprintf(w, "# simulation seeds %v, %d epochs each, wall %.1f s; open loop on the virtual clock, generator lateness 0 by construction\n",
		rec.Env.Seeds, rec.Env.Epochs, rec.Env.WallS)
	if rec.Trace == 0 {
		fmt.Fprintf(w, "# tx_samples %d", rec.Env.TxSamples)
		if rec.Env.TxSamples == 0 {
			fmt.Fprint(w, " (no per-transaction sample on this topology: tx_p50_vs and tx_p99_vs carry commit_vs)")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# trajectory_digest %s\n", rec.Digest)
	for _, name := range rec.Metrics.names() {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %-9s %s\n", name, m.Value, m.Unit, clockOf[name])
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encoding result: %v", err)) // plain data; newRecord removed NaN and Inf
	}
	fmt.Fprintf(w, "%s\n", line)
}

func appendRecord(path string, rec record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
