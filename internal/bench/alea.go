package bench

import (
	"fmt"
	"io"

	"repro/internal/byz"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// AleaPoint is one sustained-SMR measurement of the three-engine
// rivalry: Alea-BFT's serial queue agreement against HB-ACS's N parallel
// ABAs and Dumbo's committee path, under the same transport, fault, and
// adversary axes. All engines charge crypto through the same cost model,
// so the latency/throughput columns are head-to-head comparable.
type AleaPoint struct {
	Protocol  string `json:"protocol"`
	Transport string `json:"transport"` // "batched" | "baseline"
	Scenario  string `json:"scenario"`
	Spec      string `json:"spec,omitempty"` // the scenario DSL actually run
	Seed      int64  `json:"seed"`
	smrStats
	provenance
	wallClock
}

// aleaScenarioAxis is the condensed fault battery: clean, the fault
// sweep's crash/recover cycle, and the equivocation adversary (the attack
// that stresses each engine's broadcast layer — RBC echo quorums, CBC/VCBC
// certificates — most directly).
func aleaScenarioAxis() sweep.Axis[run.Spec] {
	return sweep.Axis[run.Spec]{Name: "scenario", Points: []sweep.Point[run.Spec]{
		{Label: "fault-free", Apply: func(s *run.Spec) { s.Scenario = scenario.Plan{} }},
		{Label: "crash-recover", Apply: func(s *run.Spec) { s.Scenario = crashRecover() }},
		{Label: "byz-equivocate", Apply: func(s *run.Spec) { s.Scenario = byzPlan(s, byz.NameEquivocate) }},
	}}
}

// aleaRows runs the three-engine comparison on the sustained SMR
// deployment: protocol x transport x scenario, two consecutive seeds
// innermost — the sweep enumerates the final axis fastest, so a row's
// neighbors are its seed replicas. Rows record failures (Error /
// HonestSafe=false) rather than aborting.
func aleaRows(ctx *Context) ([]AleaPoint, error) {
	base := chainBase(ctx)
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{
			aleaProtoAxis(), transportAxis(), aleaScenarioAxis(),
			sweep.Over("seed", []int64{ctx.Seed, ctx.Seed + 1}, nil, func(s *run.Spec, seed int64) { s.Seed = seed }),
		},
	}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[run.Spec]) (AleaPoint, error) {
		pt := AleaPoint{
			Protocol:  c.Labels[0],
			Transport: c.Labels[1],
			Scenario:  c.Labels[2],
			Spec:      c.Config.Scenario.String(),
			Seed:      c.Config.Seed,
		}
		res, err := run.Run(c.Config)
		if err != nil {
			pt.Error = err.Error()
			return pt, nil
		}
		pt.fill(res)
		pt.audit(res, c.Config.Workload.TxSize)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return stampedRows(results), nil
}

// printAlea renders the three-engine comparison.
func printAlea(w io.Writer, title string, rows []AleaPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-9s %-9s %-14s %5s %7s %6s %8s %9s %6s\n",
		"protocol", "transport", "scenario", "seed", "epochs", "txs", "Bps", "latency", "safe")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-9s %-14s %5d %s\n", r.Protocol, r.Transport, r.Scenario, r.Seed,
			outcome(r.Epochs, r.Error, "%7d %6d %8.2f %8.1fs %6s",
				r.Epochs, r.CommittedTxs, r.ThroughputBps, r.CommitLatencyS, r.verdict()))
	}
}
