package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/byz"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// MHChainPoint is one Clustered × Chain measurement: sustained pipelined
// SMR per cluster with rotating leaders ordering threshold-certified
// cluster cuts on the global tier — the matrix cell the unified run API
// unlocked. Neither the paper (one-shot multihop) nor the earlier chain
// experiment (single-hop) covers it.
type MHChainPoint struct {
	Protocol  string `json:"protocol"`
	Transport string `json:"transport"` // "batched" | "baseline"
	Depth     int    `json:"depth"`
	Clusters  int    `json:"clusters"`
	// Scenario is the fault/adversary DSL the cell ran (empty for the
	// fault-free grid).
	Scenario string `json:"scenario,omitempty"`
	// Epochs is the per-cluster commit target every honest node reached;
	// the commit counters sum one reference node per cluster.
	smrStats
	// OrderedCuts / GlobalEntries describe the cross-cluster total order
	// built on the global tier (certificate-verified cuts only).
	OrderedCuts   int `json:"ordered_cuts"`
	GlobalEntries int `json:"global_entries"`
	// RejectedCuts counts committed global records every seat discarded
	// as forged/unsigned (summed across seats); ForgedCommitted counts
	// forged cuts that survived into the cut order — the run driver's
	// provenance check fails the whole cell if it is ever non-zero.
	RejectedCuts    int    `json:"rejected_cuts"`
	ForgedCommitted int    `json:"forged_committed"`
	LocalAccesses   uint64 `json:"local_accesses"`
	GlobalAccesses  uint64 `json:"global_accesses"`
	Error           string `json:"error,omitempty"`
	wallClock
}

// forgeAxis scripts the forged-cut attack (byz.NameForgeCut) on the last
// cluster's last member, which also taints that cluster's relay seat —
// the Byzantine seat then submits cut records that claim a cluster it
// does not control. The three points cover the acceptance matrix: armed
// from the start, armed mid-run, and forging while an untainted cluster's
// designated relay is crashed (the next certificate holder relays).
func forgeAxis() sweep.Axis[run.Spec] {
	victim := func(s *run.Spec) int { return s.Topology.Clusters*s.Topology.PerCluster - 1 }
	return sweep.Axis[run.Spec]{Name: "forge", Points: []sweep.Point[run.Spec]{
		{Label: "forge-start", Apply: func(s *run.Spec) {
			s.Scenario = scenario.Byz(byz.NameForgeCut, victim(s))
		}},
		{Label: "forge-midrun", Apply: func(s *run.Spec) {
			s.Scenario = scenario.Plan{}.Then(scenario.ByzAt(1*time.Minute, victim(s), byz.NameForgeCut))
		}},
		{Label: "forge-failover", Apply: func(s *run.Spec) {
			s.Scenario = scenario.Byz(byz.NameForgeCut, victim(s)).
				Then(scenario.CrashAt(1*time.Minute, 0), scenario.RecoverAt(2*time.Minute, 0))
		}},
	}}
}

// mhchainRows runs the Clustered × Chain cell for two protocol families
// under both transports at pipeline depths 1 and 2 (4 clusters of 4, the
// paper's 16-node deployment), then the forged-cut adversarial cells:
// both families against a Byzantine relay seat forging cuts from the
// start, mid-run, and during relay failover. A configuration the
// deployment defeats is recorded as a row with Error set rather than
// aborting the sweep.
func mhchainRows(ctx *Context) ([]MHChainPoint, error) {
	opts := ctx.sweepOpts()
	base := chainBase(ctx)
	base.Topology = run.Clustered(4, 4)
	exec := func(c sweep.Cell[run.Spec]) (MHChainPoint, error) {
		pt := MHChainPoint{
			Protocol:  c.Labels[0],
			Transport: "batched",
			Depth:     c.Config.Workload.Window,
			Clusters:  c.Config.Topology.Clusters,
			Scenario:  c.Config.Scenario.String(),
		}
		if len(c.Labels) > 2 { // the fault-free grid's transport axis
			pt.Transport = c.Labels[1]
		}
		res, err := run.Run(c.Config)
		if err != nil {
			pt.Error = err.Error()
			return pt, nil
		}
		pt.fill(res)
		pt.OrderedCuts = res.Tiers.OrderedCuts
		pt.GlobalEntries = res.Tiers.GlobalEntries
		pt.RejectedCuts = res.Tiers.CutCerts.RejectedCuts
		// The driver's post-run provenance walk re-verifies every
		// certificate against the true cluster logs and errors on any
		// forgery that slipped through, so a successful run proves zero.
		pt.ForgedCommitted = 0
		pt.LocalAccesses = res.Tiers.LocalAccesses
		pt.GlobalAccesses = res.Tiers.GlobalAccesses
		return pt, nil
	}
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{protoAxis(), transportAxis(), depthAxis(1, 2)},
	}
	// A -filter may select cells from only one of the two grids; that is
	// an error only when it matches neither.
	results, err := sweep.Run(grid, opts, exec)
	if err != nil && !errors.Is(err, sweep.ErrNoCells) {
		return nil, err
	}
	forgeGrid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{protoAxis(), forgeAxis()},
	}
	forgeResults, ferr := sweep.Run(forgeGrid, opts, exec)
	if ferr != nil && !errors.Is(ferr, sweep.ErrNoCells) {
		return nil, ferr
	}
	if err != nil && ferr != nil {
		return nil, err
	}
	results = append(results, forgeResults...)
	return stampedRows(results), nil
}

// printMHChain renders the clustered-chain sweep.
func printMHChain(w io.Writer, title string, rows []MHChainPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-9s %-9s %5s %7s %6s %5s %8s %7s %10s %8s %12s %-s\n",
		"protocol", "transport", "depth", "epochs", "txs", "cuts", "rej_cuts", "forged", "virtual_s", "Bps", "commit_lat", "scenario")
	for _, r := range rows {
		scen := r.Scenario
		if scen == "" {
			scen = "fault-free"
		}
		fmt.Fprintf(w, "%-9s %-9s %5d %s\n", r.Protocol, r.Transport, r.Depth,
			outcome(r.Epochs, r.Error, "%7d %6d %5d %8d %7d %10.0f %8.2f %11.0fs %-s",
				r.Epochs, r.CommittedTxs, r.OrderedCuts, r.RejectedCuts, r.ForgedCommitted,
				r.VirtualSecs, r.ThroughputBps, r.CommitLatencyS, scen))
	}
}
