package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/run"
	"repro/internal/sweep"
)

// Context carries one invocation's knobs to an experiment: the sweep
// parameters, the worker pool and filter for the grid engine, and the
// output sinks.
type Context struct {
	Seed   int64
	Epochs int // one-shot epochs per run
	Batch  int // one-shot proposal size
	Reps   int // crypto microbenchmark repetitions
	// ChainEpochs is the chain-workload commit target per run; zero (or
	// less) means the count the experiment's committed golden was
	// generated at (Experiment.Epochs).
	ChainEpochs int

	Workers int    // sweep worker pool size (Serial experiments force 1)
	Filter  string // substring filter on cell names ("HB-SC/batched/...")

	Out      io.Writer // rendered tables
	JSONPath string    // trajectory output ("" = none)
	CSVPath  string    // CSV output ("" = none)
	// Progress, if non-nil, observes every completed cell.
	Progress func(done, total int, name string, elapsed time.Duration)
}

// sweepOpts builds the engine options for one experiment.
func (c *Context) sweepOpts() sweep.Options {
	return sweep.Options{Workers: c.Workers, Filter: c.Filter, Progress: c.Progress}
}

// emit writes an experiment's points to the configured JSON trajectory
// and/or CSV sinks. This (plus the print helpers) is the only row-emission
// path in the package.
func (c *Context) emit(record string, points any) error {
	workers := c.Workers
	if workers < 1 {
		workers = 1
	}
	if c.JSONPath != "" {
		if err := writeFile(c.JSONPath, func(f *os.File) error {
			return WriteTrajectory(f, record, c.Seed, workers, points)
		}); err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "wrote %s\n", c.JSONPath)
	}
	if c.CSVPath != "" {
		if err := writeFile(c.CSVPath, func(f *os.File) error {
			return WriteCSV(f, points)
		}); err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "wrote %s\n", c.CSVPath)
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Experiment is the single declaration of one table, figure or sweep.
// Every consumer enumerates Experiments(): cmd/wbft-bench for -list and
// -exp, the root package's BenchmarkExperiment/<name>, its golden checks
// and the smoke tests. Nothing else wires an experiment to anything.
type Experiment struct {
	Name string
	// Title is the rendered table's headline; -list shows it too.
	Title string
	// Serial experiments run their cells one at a time regardless of the
	// worker pool: they measure real wall-clock crypto latency, which
	// concurrent cells contending for cores would distort.
	Serial bool
	// Golden names the committed trajectory file the experiment emits
	// (-json/-csv; "" for the print-only paper figures), Record the
	// file's "experiment" field, and Epochs the chain-epoch count it was
	// generated at — the default whenever Context.ChainEpochs is zero, so
	// regenerating a golden needs no epoch count restated anywhere.
	Golden string
	Record string
	Epochs int
	// Sample is the -filter of the golden's always-on serial sample: the
	// cells re-run at Workers = 1 on every `go test`, -short and -race
	// included (golden_test.go).
	Sample string

	rows  func(*Context) (any, error)
	print func(io.Writer, any)
}

// declare binds an entry's typed sweep and table renderer to the
// registry's untyped run step.
func declare[R any](e Experiment, rows func(*Context) ([]R, error), print func(io.Writer, string, []R)) Experiment {
	e.rows = func(c *Context) (any, error) { return rows(c) }
	e.print = func(w io.Writer, v any) { print(w, e.Title, v.([]R)) }
	return e
}

// Rows runs the experiment's sweep and returns its row slice, in grid
// order.
func (e Experiment) Rows(ctx *Context) (any, error) {
	c := *ctx
	if c.ChainEpochs <= 0 {
		c.ChainEpochs = e.Epochs
	}
	if e.Serial {
		c.Workers = 1
	}
	return e.rows(&c)
}

// Run is the one run step: rows, then the rendered table, then the
// machine-readable sinks.
func (e Experiment) Run(ctx *Context) error {
	rows, err := e.Rows(ctx)
	if err != nil {
		return err
	}
	e.print(ctx.Out, rows)
	if e.Golden == "" {
		return nil
	}
	return ctx.emit(e.Record, rows)
}

// Experiments returns the registry in canonical (-exp all) order.
func Experiments() []Experiment {
	return []Experiment{
		declare(Experiment{Name: "table1", Title: "Table I — message overhead per node, N=4 parallel components"},
			table1Rows, printTable1),
		declare(Experiment{Name: "fig10a", Title: "Fig. 10a — threshold signature operation latency (this machine)", Serial: true},
			fig10aRows, printCryptoOps),
		declare(Experiment{Name: "fig10b", Title: "Fig. 10b — threshold coin flipping operation latency (this machine)", Serial: true},
			fig10bRows, printCryptoOps),
		declare(Experiment{Name: "fig10c", Title: "Fig. 10c — signature sizes"},
			fig10cRows, printSizes),
		declare(Experiment{Name: "fig10d", Title: "Fig. 10d — HoneyBadgerBFT-SC latency/throughput vs crypto weight"},
			fig10dRows, printFig10d),
		// Fig. 11a: PRBC > CBC > RBC; the -small variants are flatter.
		rigFigure{variants: broadcastKinds, axis: "parallel", row: "%-10s %9v %12s\n", header: "parallel",
			measure: func(k Component, n int, seed int64) (time.Duration, error) {
				return BroadcastLatency(k, n, 1, true, seed)
			},
		}.entry(Experiment{Name: "fig11a", Title: "Fig. 11a — broadcast latency vs parallel instances"}),
		// Fig. 11b, at full parallelism: the CBC-RBC gap grows with
		// proposal size.
		rigFigure{variants: []Component{BRBC, BPRBC, BCBC}, axis: "packets", row: "%-10s %8v %12s\n", header: "packets",
			measure: func(k Component, n int, seed int64) (time.Duration, error) {
				return BroadcastLatency(k, 4, n, true, seed)
			},
		}.entry(Experiment{Name: "fig11b", Title: "Fig. 11b — broadcast latency vs proposal size (packets)"}),
		rigFigure{variants: abaVariants, axis: "parallel", row: "%-8s %6v %12s\n", header: "count",
			measure: ABAParallelLatency,
		}.entry(Experiment{Name: "fig12a", Title: "Fig. 12a — ABA latency vs parallel instances"}),
		rigFigure{variants: []Component{ABALC, ABASC}, axis: "serial", row: "%-8s %6v %12s\n", header: "count",
			measure: abaSerialLatency,
		}.entry(Experiment{Name: "fig12b", Title: "Fig. 12b — ABA latency vs serial instances"}),
		fig13(Experiment{Name: "fig13a", Title: "Fig. 13a — single-hop: 8 consensus configurations"},
			run.SingleHop(), 4*time.Hour),
		fig13(Experiment{Name: "fig13b", Title: "Fig. 13b — multi-hop (16 nodes, 4 clusters): 8 configurations"},
			run.Clustered(4, 4), 8*time.Hour),
		declare(Experiment{Name: "chain", Title: "Chain/SMR — sustained committed bytes/sec vs pipeline depth (beyond the paper)",
			Golden: "BENCH_chain.json", Record: "chain-sustained-throughput", Epochs: 10, Sample: "HB-SC/batched"},
			chainRows, printChain),
		declare(Experiment{Name: "faults", Title: "Faults — sustained SMR under scripted fault scenarios (beyond the paper)",
			Golden: "BENCH_faults.json", Record: "fault-scenario-sweep", Epochs: 12, Sample: "HB-SC/batched"},
			faultRows, printFaults),
		declare(Experiment{Name: "byz", Title: "Byzantine — sustained SMR with f actively Byzantine replicas (beyond the paper)",
			Golden: "BENCH_byz.json", Record: "byzantine-sweep", Epochs: 8, Sample: "garbage/HB-SC/batched"},
			byzRows, printByz),
		declare(Experiment{Name: "mhchain", Title: "Clustered chain — pipelined SMR per cluster, certified cluster cuts ordered on the global tier",
			Golden: "BENCH_mhchain.json", Record: "clustered-chain-smr", Epochs: 4, Sample: "HB-SC/batched/depth=1"},
			mhchainRows, printMHChain),
		declare(Experiment{Name: "alea", Title: "Alea — three-engine SMR rivalry: Alea-BFT vs HB-ACS vs Dumbo (beyond the paper)",
			Golden: "BENCH_alea.json", Record: "alea-sweep", Epochs: 12, Sample: "Alea-SC/batched/crash-recover/seed=1"},
			aleaRows, printAlea),
		declare(Experiment{Name: "traffic", Title: "Traffic — open-loop saturation: offered rate vs commit throughput, tail latency, drops",
			Golden: "BENCH_traffic.json", Record: "traffic-sweep", Epochs: 6, Sample: "Alea-SC/onoff/rate=0.08"},
			trafficRows, printTraffic),
	}
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
