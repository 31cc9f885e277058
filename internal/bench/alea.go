package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/byz"
	"repro/internal/protocol"
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

// aleaProtoAxis is the three-engine axis, signature coin throughout (the
// strongest common configuration across the families).
func aleaProtoAxis() sweep.Axis[run.Spec] {
	return sweep.Axis[run.Spec]{Name: "protocol", Points: []sweep.Point[run.Spec]{
		specPoint("HB-SC", protocol.HoneyBadger, protocol.CoinSig),
		specPoint("Dumbo-SC", protocol.DumboKind, protocol.CoinSig),
		specPoint("Alea-SC", protocol.AleaKind, protocol.CoinSig),
	}}
}

// aleaScenarioAxis is the condensed fault battery: clean, the
// FaultSweep's crash/recover cycle, and the equivocation adversary (the
// attack that stresses each engine's broadcast layer — RBC echo quorums,
// CBC/VCBC certificates — most directly).
func aleaScenarioAxis() sweep.Axis[run.Spec] {
	return sweep.Axis[run.Spec]{Name: "scenario", Points: []sweep.Point[run.Spec]{
		{Label: "fault-free", Apply: func(s *run.Spec) { s.Scenario = scenario.Plan{} }},
		{Label: "crash-recover", Apply: func(s *run.Spec) {
			s.Scenario = scenario.Plan{}.Then(
				scenario.CrashAt(30*time.Minute, 2),
				scenario.RecoverAt(60*time.Minute, 2))
		}},
		{Label: "byz-equivocate", Apply: func(s *run.Spec) {
			f := (s.N - 1) / 3
			plan := scenario.Plan{}
			for i := 0; i < f; i++ {
				plan = plan.Then(scenario.ByzAt(0, s.N-1-i, byz.NameEquivocate))
			}
			s.Scenario = plan
		}},
	}}
}

// aleaSeedAxis replicates every cell at consecutive seeds. It goes last
// in the grid — the sweep enumerates the final axis fastest, so seeds are
// innermost and a row's neighbors are its seed replicas.
func aleaSeedAxis(seed int64, n int) sweep.Axis[run.Spec] {
	ax := sweep.Axis[run.Spec]{Name: "seed"}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		ax.Points = append(ax.Points, sweep.Point[run.Spec]{
			Label: fmt.Sprintf("seed=%d", s),
			Apply: func(sp *run.Spec) { sp.Seed = s },
		})
	}
	return ax
}

// AleaSweep runs the three-engine comparison on the sustained SMR
// deployment: protocol x transport x scenario, two seeds innermost.
// Rows record failures (Error / HonestSafe=false) rather than aborting.
func AleaSweep(seed int64, epochs int, opts sweep.Options) ([]AleaPoint, error) {
	if epochs <= 0 {
		epochs = 12
	}
	base := chainBase(seed, epochs)
	base.Workload.GCLag = epochs // full logs survive for the provenance audit
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{
			aleaProtoAxis(), transportAxis(), aleaScenarioAxis(), aleaSeedAxis(seed, 2),
		},
	}
	results, err := sweep.Run(grid, opts, func(c sweep.Cell[run.Spec]) (AleaPoint, error) {
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

// runAleaExp is the registry entry: sweep, table, trajectory.
func runAleaExp(ctx *Context) error {
	rows, err := AleaSweep(ctx.Seed, ctx.ChainEpochs, ctx.sweepOpts(false))
	if err != nil {
		return err
	}
	PrintAlea(ctx.Out, rows)
	return ctx.emit("alea-sweep", rows)
}

// PrintAlea renders the three-engine comparison.
func PrintAlea(w io.Writer, rows []AleaPoint) {
	fmt.Fprintln(w, "Alea — three-engine SMR rivalry: Alea-BFT vs HB-ACS vs Dumbo (beyond the paper)")
	fmt.Fprintf(w, "%-9s %-9s %-14s %5s %7s %6s %8s %9s %6s\n",
		"protocol", "transport", "scenario", "seed", "epochs", "txs", "Bps", "latency", "safe")
	for _, r := range rows {
		if r.Error != "" && r.Epochs == 0 {
			fmt.Fprintf(w, "%-9s %-9s %-14s %5d %s\n", r.Protocol, r.Transport, r.Scenario, r.Seed, "FAILED: "+r.Error)
			continue
		}
		safe := "OK"
		if !r.HonestSafe {
			safe = "FAIL"
		}
		fmt.Fprintf(w, "%-9s %-9s %-14s %5d %7d %6d %8.2f %8.1fs %6s\n",
			r.Protocol, r.Transport, r.Scenario, r.Seed, r.Epochs,
			r.CommittedTxs, r.ThroughputBps, r.CommitLatencyS, safe)
	}
}
