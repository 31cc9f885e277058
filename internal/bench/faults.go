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

// faultScenario names one scripted plan of the sweep.
type faultScenario struct {
	name string
	plan scenario.Plan
}

// faultScenarios start every event inside the fastest run, batched
// HoneyBadger's, which commits its 12 fault-free epochs in about 4 min; a
// golden test holds every row of the committed sweep to that.
var faultScenarios = []faultScenario{
	{"fault-free", scenario.Plan{}},
	{"crash-f", scenario.Crash(3)},
	{"crash-recover", crashRecover()},
	{"delay-adversary", scenario.Delay(0.25, 10*time.Second)},
	{"jam-burst", scenario.Plan{}.Then(
		scenario.JamAt(time.Minute, 90*time.Second),
		scenario.LossBurst(3*time.Minute, 5*time.Minute, 0.3),
	)},
	{"partition-heal", scenario.Plan{}.Then(
		scenario.PartitionAt(2*time.Minute, []int{0, 1}, []int{2, 3}),
		scenario.HealAt(10*time.Minute),
	)},
}

// faultRows runs every fault scenario against two protocol families under
// both transports on the sustained SMR deployment and reports throughput,
// latency, and contention under each condition. A scenario that defeats a
// run (deadline or deadlock) is recorded as a row with Error set rather
// than aborting the sweep — "this configuration does not survive this
// fault" is itself the measurement.
func faultRows(ctx *Context) ([]FaultPoint, error) {
	base := chainBase(ctx)
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{
			sweep.Over("scenario", faultScenarios,
				func(sc faultScenario) string { return sc.name },
				func(s *run.Spec, sc faultScenario) { s.Scenario = sc.plan }),
			protoAxis(), transportAxis(),
		},
	}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[run.Spec]) (FaultPoint, error) {
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

// printFaults renders the fault sweep.
func printFaults(w io.Writer, title string, rows []FaultPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-15s %-9s %-9s %7s %6s %10s %8s %12s %9s\n",
		"scenario", "protocol", "transport", "epochs", "txs", "virtual_s", "Bps", "commit_lat", "accesses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-9s %-9s %s\n", r.Scenario, r.Protocol, r.Transport,
			outcome(r.Epochs, r.Error, "%7d %6d %10.0f %8.2f %11.0fs %9d",
				r.Epochs, r.CommittedTxs, r.VirtualSecs, r.ThroughputBps, r.CommitLatencyS, r.Accesses))
	}
}
