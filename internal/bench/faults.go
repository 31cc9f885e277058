package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// FaultPoint is one sustained-SMR measurement under a scripted fault
// scenario. The fault sweep is the evaluation the paper leaves out: its
// runs are fault-free (plus a t=0 crash), but the asynchronous-BFT value
// proposition only shows under the conditions wireless deployments face —
// crashes with recovery, partitions, jamming bursts, and the adversarial
// delay schedule the asynchronous model is defined against.
type FaultPoint struct {
	Scenario  string `json:"scenario"`
	Spec      string `json:"spec"` // the scenario DSL actually run
	Protocol  string `json:"protocol"`
	Transport string `json:"transport"` // "batched" | "baseline"
	smrStats
	Accesses   uint64 `json:"accesses"`
	Collisions uint64 `json:"collisions"`
	Error      string `json:"error,omitempty"` // deadline/deadlock, if the scenario defeated the run
	wallClock
}

// faultScenario names one scripted plan of the sweep. Crash/recovery times
// are placed against the ~5m45s default epoch cadence: the crash lands
// around epoch 5 and the recovery around epoch 10.
type faultScenario struct {
	name string
	plan scenario.Plan
}

func faultScenarios() []faultScenario {
	return []faultScenario{
		{"fault-free", scenario.Plan{}},
		{"crash-f", scenario.Crash(3)},
		{"crash-recover", scenario.Plan{}.Then(
			scenario.CrashAt(30*time.Minute, 2),
			scenario.RecoverAt(60*time.Minute, 2),
		)},
		{"delay-adversary", scenario.Delay(0.25, 10*time.Second)},
		{"jam-burst", scenario.Plan{}.Then(
			scenario.JamAt(20*time.Minute, 90*time.Second),
			scenario.LossBurst(40*time.Minute, 5*time.Minute, 0.3),
		)},
		{"partition-heal", scenario.Plan{}.Then(
			scenario.PartitionAt(15*time.Minute, []int{0, 1}, []int{2, 3}),
			scenario.HealAt(45*time.Minute),
		)},
	}
}

// scenarioAxis turns the scripted fault plans into a grid axis.
func scenarioAxis() sweep.Axis[run.Spec] {
	ax := sweep.Axis[run.Spec]{Name: "scenario"}
	for _, sc := range faultScenarios() {
		sc := sc
		ax.Points = append(ax.Points, sweep.Point[run.Spec]{
			Label: sc.name,
			Apply: func(s *run.Spec) { s.Scenario = sc.plan },
		})
	}
	return ax
}

// FaultSweep runs every fault scenario against two protocol families under
// both transports on the sustained SMR deployment and reports throughput,
// latency, and contention under each condition. A scenario that defeats a
// run (deadline or deadlock) is recorded as a row with Error set rather
// than aborting the sweep — "this configuration does not survive this
// fault" is itself the measurement.
func FaultSweep(seed int64, epochs int, opts sweep.Options) ([]FaultPoint, error) {
	if epochs <= 0 {
		epochs = 12
	}
	base := chainBase(seed, epochs)
	// Recovery catch-up needs peers to keep the missing epochs alive; give
	// every run the same (generous) GC window so the scenarios stay
	// comparable.
	base.Workload.GCLag = epochs
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{scenarioAxis(), protoAxis(), transportAxis()},
	}
	results, err := sweep.Run(grid, opts, func(c sweep.Cell[run.Spec]) (FaultPoint, error) {
		pt := FaultPoint{
			Scenario:  c.Labels[0],
			Spec:      c.Config.Scenario.String(),
			Protocol:  c.Labels[1],
			Transport: c.Labels[2],
		}
		res, err := run.Run(c.Config)
		if err != nil {
			pt.Error = err.Error()
			return pt, nil
		}
		pt.fill(res)
		pt.Accesses = res.Accesses
		pt.Collisions = res.Collisions
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return stampedRows(results), nil
}

// runFaultsExp is the registry entry: sweep, table, trajectory.
func runFaultsExp(ctx *Context) error {
	rows, err := FaultSweep(ctx.Seed, ctx.ChainEpochs, ctx.sweepOpts(false))
	if err != nil {
		return err
	}
	PrintFaults(ctx.Out, rows)
	return ctx.emit("fault-scenario-sweep", rows)
}

// PrintFaults renders the fault sweep.
func PrintFaults(w io.Writer, rows []FaultPoint) {
	fmt.Fprintln(w, "Faults — sustained SMR under scripted fault scenarios (beyond the paper)")
	fmt.Fprintf(w, "%-15s %-9s %-9s %7s %6s %10s %8s %12s %9s\n",
		"scenario", "protocol", "transport", "epochs", "txs", "virtual_s", "Bps", "commit_lat", "accesses")
	for _, r := range rows {
		if r.Error != "" {
			fmt.Fprintf(w, "%-15s %-9s %-9s %s\n", r.Scenario, r.Protocol, r.Transport, "FAILED: "+r.Error)
			continue
		}
		fmt.Fprintf(w, "%-15s %-9s %-9s %7d %6d %10.0f %8.2f %11.0fs %9d\n",
			r.Scenario, r.Protocol, r.Transport, r.Epochs, r.CommittedTxs,
			r.VirtualSecs, r.ThroughputBps, r.CommitLatencyS, r.Accesses)
	}
}
