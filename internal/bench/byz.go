package bench

import (
	"fmt"
	"io"

	"repro/internal/byz"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// ByzPoint is one sustained-SMR measurement with f actively Byzantine
// replicas (behavior x protocol x transport). HonestSafe is the sweep's
// acceptance bar: the honest nodes committed identical gap-free logs
// containing only genuine client transactions — nothing the adversary
// forged, corrupted, or equivocated survived into the log.
type ByzPoint struct {
	Behavior  string `json:"behavior"`
	Spec      string `json:"spec"` // the scenario DSL actually run
	Protocol  string `json:"protocol"`
	Transport string `json:"transport"` // "batched" | "baseline"
	ByzNodes  int    `json:"byz_nodes"` // f = (N-1)/3
	smrStats
	// RejectedMsgs counts the invalid shares, certificates, proofs, and
	// malformed proposals the component defenses discarded across all
	// nodes — how much of the attack the verification layer absorbed.
	RejectedMsgs uint64 `json:"rejected_msgs"`
	provenance
	wallClock
}

// behaviorAxis arms f = (N-1)/3 replicas with one active-Byzantine
// behavior from t=0. The axis reads the Spec's N, so it must come after
// any axis that changes the group size (here none does — N stays at the
// base's 4). The behavior list is pinned to the four single-hop attacks
// rather than byz.Names(): byz.NameForgeCut targets the clustered
// chain's cut records and has its own MHChainSweep cells — on this
// single-hop deployment it would add rows that never forge anything.
func behaviorAxis() sweep.Axis[run.Spec] {
	ax := sweep.Axis[run.Spec]{Name: "behavior"}
	for _, behavior := range []string{byz.NameEquivocate, byz.NameFlipVotes, byz.NameGarbage, byz.NameWithhold} {
		behavior := behavior
		ax.Points = append(ax.Points, sweep.Point[run.Spec]{
			Label: behavior,
			Apply: func(s *run.Spec) {
				f := (s.N - 1) / 3
				plan := scenario.Plan{}
				for i := 0; i < f; i++ {
					plan = plan.Then(scenario.ByzAt(0, s.N-1-i, behavior))
				}
				s.Scenario = plan
			},
		})
	}
	return ax
}

// ByzSweep runs every active-Byzantine behavior against two protocol
// families under both transports on the sustained SMR deployment, with
// f = (N-1)/3 Byzantine nodes from t=0. This is the adversarial
// counterpart of FaultSweep: the fault sweep's scenarios are all
// crash/omission-shaped, so the BFT machinery (echo quorums, share
// verification, the DECIDED gadget) runs but is never attacked; here it
// is. A behavior that defeats a configuration is recorded as a row with
// Error or HonestSafe=false rather than aborting the sweep.
func ByzSweep(seed int64, epochs int, opts sweep.Options) ([]ByzPoint, error) {
	if epochs <= 0 {
		epochs = 8
	}
	base := chainBase(seed, epochs)
	base.Workload.GCLag = epochs // comparable with FaultSweep
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{behaviorAxis(), protoAxis(), transportAxis()},
	}
	results, err := sweep.Run(grid, opts, func(c sweep.Cell[run.Spec]) (ByzPoint, error) {
		pt := ByzPoint{
			Behavior:  c.Labels[0],
			Spec:      c.Config.Scenario.String(),
			Protocol:  c.Labels[1],
			Transport: c.Labels[2],
			ByzNodes:  (c.Config.N - 1) / 3,
		}
		res, err := run.Run(c.Config)
		if err != nil {
			pt.Error = err.Error()
			return pt, nil
		}
		pt.fill(res)
		pt.RejectedMsgs = res.Rejected
		pt.audit(res, c.Config.Workload.TxSize)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return stampedRows(results), nil
}

// runByzExp is the registry entry: sweep, table, trajectory.
func runByzExp(ctx *Context) error {
	rows, err := ByzSweep(ctx.Seed, ctx.ChainEpochs, ctx.sweepOpts(false))
	if err != nil {
		return err
	}
	PrintByz(ctx.Out, rows)
	return ctx.emit("byzantine-sweep", rows)
}

// PrintByz renders the Byzantine sweep.
func PrintByz(w io.Writer, rows []ByzPoint) {
	fmt.Fprintln(w, "Byzantine — sustained SMR with f actively Byzantine replicas (beyond the paper)")
	fmt.Fprintf(w, "%-11s %-9s %-9s %4s %7s %6s %8s %9s %6s\n",
		"behavior", "protocol", "transport", "byz", "epochs", "txs", "Bps", "rejected", "safe")
	for _, r := range rows {
		if r.Error != "" && !r.HonestSafe && r.Epochs == 0 {
			fmt.Fprintf(w, "%-11s %-9s %-9s %s\n", r.Behavior, r.Protocol, r.Transport, "FAILED: "+r.Error)
			continue
		}
		safe := "OK"
		if !r.HonestSafe {
			safe = "FAIL"
		}
		fmt.Fprintf(w, "%-11s %-9s %-9s %4d %7d %6d %8.2f %9d %6s\n",
			r.Behavior, r.Protocol, r.Transport, r.ByzNodes, r.Epochs,
			r.CommittedTxs, r.ThroughputBps, r.RejectedMsgs, safe)
	}
}
