package bench

import (
	"fmt"
	"io"

	"repro/internal/byz"
	"repro/internal/node"
	"repro/internal/run"
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

// byzBehaviors is pinned to the four single-hop attacks rather than
// byz.Names(): byz.NameForgeCut targets the clustered chain's cut records
// and has its own mhchain cells — on this single-hop deployment it would
// add rows that never forge anything.
var byzBehaviors = []string{byz.NameEquivocate, byz.NameFlipVotes, byz.NameGarbage, byz.NameWithhold}

// byzRows runs every active-Byzantine behavior against two protocol
// families under both transports on the sustained SMR deployment, with
// f = (N-1)/3 Byzantine nodes from t=0. This is the adversarial
// counterpart of the fault sweep: the fault sweep's scenarios are all
// crash/omission-shaped, so the BFT machinery (echo quorums, share
// verification, the DECIDED gadget) runs but is never attacked; here it
// is. A behavior that defeats a configuration is recorded as a row with
// Error or HonestSafe=false rather than aborting the sweep.
func byzRows(ctx *Context) ([]ByzPoint, error) {
	base := chainBase(ctx)
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{
			sweep.Over("behavior", byzBehaviors,
				func(b string) string { return b },
				func(s *run.Spec, b string) { s.Scenario = byzPlan(s, b) }),
			protoAxis(), transportAxis(),
		},
	}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[run.Spec]) (ByzPoint, error) {
		pt := ByzPoint{
			Behavior:  c.Labels[0],
			Spec:      c.Config.Scenario.String(),
			Protocol:  c.Labels[1],
			Transport: c.Labels[2],
			ByzNodes:  node.Faults(c.Config.N),
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

// printByz renders the Byzantine sweep.
func printByz(w io.Writer, title string, rows []ByzPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-11s %-9s %-9s %4s %7s %6s %8s %9s %6s\n",
		"behavior", "protocol", "transport", "byz", "epochs", "txs", "Bps", "rejected", "safe")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-9s %-9s %s\n", r.Behavior, r.Protocol, r.Transport,
			outcome(r.Epochs, r.Error, "%4d %7d %6d %8.2f %9d %6s",
				r.ByzNodes, r.Epochs, r.CommittedTxs, r.ThroughputBps, r.RejectedMsgs, r.verdict()))
	}
}
