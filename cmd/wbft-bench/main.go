// Command wbft-bench regenerates every table and figure of the paper's
// evaluation section (plus the beyond-the-paper SMR sweeps) through the
// declarative grid engine in internal/sweep.
//
// Usage:
//
//	wbft-bench [-exp all|<name>] [-list] [-parallel N] [-filter SUBSTR]
//	           [-seed N] [-epochs N] [-batch N] [-reps N] [-chain-epochs N]
//	           [-json FILE] [-csv FILE] [-cpuprofile FILE] [-memprofile FILE]
//	           [-v]
//
// -list enumerates the registered experiments; an unknown -exp value
// exits non-zero with the same list. -parallel sets the sweep worker
// pool (default: GOMAXPROCS); results are bit-identical at every worker
// count — only wall-clock changes. -filter restricts a sweep to cells
// whose name ("HB-SC/batched/depth=2") contains the substring. -json and
// -csv write the selected experiment's points as machine-readable files
// (the BENCH_*.json trajectories; with -exp all they apply to chain).
// -chain-epochs defaults, per experiment, to the count its committed
// trajectory was generated at (-list shows it), so
// `-exp NAME -json BENCH_NAME.json` regenerates the committed file.
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the memory profile is a heap snapshot taken after the last
// experiment finishes, with an up-to-date allocation record). -v streams
// per-cell progress to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/sweep"
)

func main() {
	// The sweeps churn short-lived simulation objects with a tiny live
	// heap, so the default GC target (100%) collects far too eagerly.
	// Raise it unless the operator set an explicit GOGC; determinism is
	// unaffected (GC never changes simulation state, only wall time).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	list := flag.Bool("list", false, "list registered experiments and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker pool size")
	filter := flag.String("filter", "", "run only sweep cells whose name contains this substring")
	seed := flag.Int64("seed", 1, "simulation seed")
	epochs := flag.Int("epochs", 1, "epochs per protocol run")
	batch := flag.Int("batch", 4, "transactions per proposal")
	reps := flag.Int("reps", 3, "repetitions for crypto microbenchmarks")
	chainEpochs := flag.Int("chain-epochs", 0, "epochs per run of the chain-workload sweeps (default: the count the experiment's committed golden was generated at, see -list)")
	jsonPath := flag.String("json", "", "write the experiment's points to this JSON trajectory file")
	csvPath := flag.String("csv", "", "write the experiment's points to this CSV file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-run snapshot) to this file")
	verbose := flag.Bool("v", false, "stream per-cell sweep progress to stderr")
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbft-bench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wbft-bench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wbft-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wbft-bench: -memprofile:", err)
			}
		}()
	}
	ctx := &bench.Context{
		Seed:        *seed,
		Epochs:      *epochs,
		Batch:       *batch,
		Reps:        *reps,
		ChainEpochs: *chainEpochs,
		Workers:     *parallel,
		Filter:      *filter,
		Out:         os.Stdout,
	}
	if *verbose {
		ctx.Progress = func(done, total int, name string, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s (%s)\n", done, total, name, elapsed.Round(time.Millisecond))
		}
	}
	if err := run(ctx, *exp, *jsonPath, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "wbft-bench:", err)
		os.Exit(1)
	}
}

func run(ctx *bench.Context, exp, jsonPath, csvPath string) error {
	if exp == "all" {
		ran := 0
		for _, e := range bench.Experiments() {
			// With -exp all the machine-readable sinks apply to the chain
			// sweep (the historical behavior).
			ctx.JSONPath, ctx.CSVPath = "", ""
			if e.Name == "chain" {
				ctx.JSONPath, ctx.CSVPath = jsonPath, csvPath
			}
			err := e.Run(ctx)
			// Experiments use disjoint cell vocabularies, so a -filter
			// meant for one sweep legitimately matches nothing in the
			// others: skip those rather than aborting the walk.
			if errors.Is(err, sweep.ErrNoCells) {
				fmt.Fprintf(ctx.Out, "%s: no cells match -filter %q; skipped\n\n", e.Name, ctx.Filter)
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			ran++
			fmt.Fprintln(ctx.Out)
		}
		if ran == 0 {
			return fmt.Errorf("no experiment has cells matching -filter %q", ctx.Filter)
		}
		return nil
	}
	e, ok := bench.Lookup(exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "wbft-bench: unknown experiment %q\n\n", exp)
		printList(os.Stderr)
		os.Exit(2)
	}
	if (jsonPath != "" || csvPath != "") && e.Golden == "" {
		return fmt.Errorf("experiment %q has no machine-readable point emission (-json/-csv); see -list for the trajectory experiments", exp)
	}
	ctx.JSONPath, ctx.CSVPath = jsonPath, csvPath
	return e.Run(ctx)
}

func printList(w *os.File) {
	fmt.Fprintln(w, "registered experiments (-exp NAME, or -exp all):")
	for _, e := range bench.Experiments() {
		tags := ""
		if e.Golden != "" {
			tags = fmt.Sprintf("  [-json/-csv: %s at -chain-epochs %d]", e.Golden, e.Epochs)
		}
		if e.Serial {
			tags += "  [serial]"
		}
		fmt.Fprintf(w, "  %-8s %s%s\n", e.Name, e.Title, tags)
	}
}
