package bench

import (
	"fmt"
	"io"

	"repro/internal/run"
	"repro/internal/sweep"
)

// ChainPoint is one sustained-SMR measurement: committed payload bytes per
// virtual second at a given pipeline depth. This experiment goes beyond the
// paper's one-epoch-at-a-time evaluation: it measures the replicated-log
// deployment (as HoneyBadgerBFT and Dumbo report their throughput) on the
// wireless channel, and how much epoch pipelining buys on top of
// ConsensusBatcher.
type ChainPoint struct {
	Protocol  string `json:"protocol"`
	Transport string `json:"transport"` // "batched" | "baseline"
	Depth     int    `json:"depth"`
	smrStats
	CommittedBytes uint64 `json:"committed_bytes"`
	Accesses       uint64 `json:"accesses"`
	DedupDropped   int    `json:"dedup_dropped"`
	wallClock
}

// chainRows sweeps pipeline depth for two protocol families under both
// transports on the lossy default channel. Traffic is sized so the mempool
// can always fill the next proposal: the sweep isolates how much of the
// epoch cadence pipelining reclaims.
func chainRows(ctx *Context) ([]ChainPoint, error) {
	grid := sweep.Grid[run.Spec]{
		Base: chainBase(ctx),
		Axes: []sweep.Axis[run.Spec]{protoAxis(), transportAxis(), depthAxis(1, 2, 4)},
	}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[run.Spec]) (ChainPoint, error) {
		res, err := run.Run(c.Config)
		if err != nil {
			return ChainPoint{}, fmt.Errorf("bench: chain %s: %w", c.Name(), err)
		}
		pt := ChainPoint{
			Protocol:       c.Labels[0],
			Transport:      c.Labels[1],
			Depth:          c.Config.Workload.Window,
			CommittedBytes: res.Chain.CommittedBytes,
			Accesses:       res.Accesses,
			DedupDropped:   res.Chain.DedupDropped,
		}
		pt.fill(res)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return stampedRows(results), nil
}

// printChain renders the sustained-throughput sweep.
func printChain(w io.Writer, title string, rows []ChainPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-9s %-9s %5s %7s %6s %10s %10s %12s %9s\n",
		"protocol", "transport", "depth", "epochs", "txs", "virtual_s", "Bps", "commit_lat", "accesses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-9s %5d %7d %6d %10.0f %10.2f %11.0fs %9d\n",
			r.Protocol, r.Transport, r.Depth, r.Epochs, r.CommittedTxs,
			r.VirtualSecs, r.ThroughputBps, r.CommitLatencyS, r.Accesses)
	}
}
