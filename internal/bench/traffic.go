package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// TrafficPoint is one open-loop saturation measurement: an arrival
// process (Poisson or bursty on-off) offers transactions at a configured
// aggregate rate regardless of how fast the engine commits, and the row
// records where the offered/committed curves part ways — the saturation
// knee — along with the client-visible latency percentiles and the
// admission-control drop count under the bounded mempool.
type TrafficPoint struct {
	Protocol string  `json:"protocol"`
	Pattern  string  `json:"pattern"` // "poisson" | "onoff"
	RateTPS  float64 `json:"rate_tps"`
	Seed     int64   `json:"seed"`
	Epochs   int     `json:"epochs"`
	// OfferedTxs counts generator arrivals; CommittedTxs what the chain
	// ordered; RejectedTxs what the reference node's bounded mempool
	// refused at admission. Offered - committed - rejected is backlog
	// still pooled at run end, not loss.
	OfferedTxs    int     `json:"offered_txs"`
	CommittedTxs  int     `json:"committed_txs"`
	RejectedTxs   int     `json:"rejected_txs"`
	PeakPoolBytes int     `json:"peak_pool_bytes"`
	VirtualSecs   float64 `json:"virtual_s"`
	ThroughputBps float64 `json:"throughput_Bps"`
	// Per-transaction submit->commit latency percentiles (seconds) at the
	// reference node — the client-visible tail, not epoch latency.
	P50S float64 `json:"p50_s"`
	P90S float64 `json:"p90_s"`
	P99S float64 `json:"p99_s"`
	provenance
	wallClock
}

// trafficPatternAxis selects the arrival process. Both points share the
// same 1000-client population; on-off adds the bursty duty cycle (awake
// 2 min of every 10, so the active subset churns and arrivals clump).
func trafficPatternAxis() sweep.Axis[run.Spec] {
	return sweep.Axis[run.Spec]{Name: "pattern", Points: []sweep.Point[run.Spec]{
		{Label: "poisson", Apply: func(s *run.Spec) {
			s.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Clients: 1000}
		}},
		{Label: "onoff", Apply: func(s *run.Spec) {
			s.Workload.Arrival = traffic.Pattern{
				Kind: traffic.OnOff, Clients: 1000,
				OnMean: 2 * time.Minute, OffMean: 8 * time.Minute,
			}
		}},
	}}
}

// trafficRows runs the open-loop saturation matrix: engine x arrival
// pattern x offered rate, every cell under a 2 KiB mempool admission cap
// so overload shows up as counted rejections instead of unbounded pool
// growth. The aggregate offered rates (tx/s) bracket the measured commit
// capacities (~0.25 tx/s for HB-SC and ~0.085 tx/s for Dumbo-SC at 64-byte
// transactions on the LoRa-class channel, from BENCH_chain.json): Dumbo's
// and Alea's curves cross their knee inside the sweep, HB-SC's top rate is
// above its capacity. The rate axis goes last so
// rates are innermost — a row's neighbors trace one saturation curve —
// and sets only Rate, so it composes with the pattern axis's Pattern.
// Rows record failures (Error / HonestSafe=false) rather than aborting.
func trafficRows(ctx *Context) ([]TrafficPoint, error) {
	base := chainBase(ctx)
	base.Workload.Mempool.MaxPendingBytes = 2048
	grid := sweep.Grid[run.Spec]{
		Base: base,
		Axes: []sweep.Axis[run.Spec]{
			aleaProtoAxis(), trafficPatternAxis(),
			sweep.Over("rate", []float64{0.005, 0.02, 0.08, 0.32}, nil,
				func(s *run.Spec, r float64) { s.Workload.Arrival.Rate = r }),
		},
	}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[run.Spec]) (TrafficPoint, error) {
		pt := TrafficPoint{
			Protocol: c.Labels[0],
			Pattern:  c.Labels[1],
			RateTPS:  c.Config.Workload.Arrival.Rate,
			Seed:     c.Config.Seed,
		}
		res, err := run.Run(c.Config)
		if err != nil {
			pt.Error = err.Error()
			return pt, nil
		}
		pt.Epochs = res.Chain.EpochsCommitted
		pt.OfferedTxs = res.Chain.SubmittedTxs
		pt.CommittedTxs = res.Chain.CommittedTxs
		pt.RejectedTxs = res.Chain.AdmissionRejected
		pt.PeakPoolBytes = res.Chain.PeakMempoolBytes
		pt.VirtualSecs = res.Duration.Seconds()
		pt.ThroughputBps = res.Chain.ThroughputBps
		if lat := res.Chain.TxLatency; lat != nil {
			pt.P50S = lat.P50.Seconds()
			pt.P90S = lat.P90.Seconds()
			pt.P99S = lat.P99.Seconds()
		}
		pt.audit(res, c.Config.Workload.TxSize)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return stampedRows(results), nil
}

// printTraffic renders the saturation curves.
func printTraffic(w io.Writer, title string, rows []TrafficPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-9s %-8s %7s %8s %9s %7s %8s %8s %8s %6s %6s\n",
		"protocol", "pattern", "rate", "offered", "committed", "reject", "Bps", "p50", "p99", "pool", "safe")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-8s %7g %s\n", r.Protocol, r.Pattern, r.RateTPS,
			outcome(r.Epochs, r.Error, "%8d %9d %7d %8.2f %7.1fs %7.1fs %6d %6s",
				r.OfferedTxs, r.CommittedTxs, r.RejectedTxs, r.ThroughputBps, r.P50S, r.P99S, r.PeakPoolBytes, r.verdict()))
	}
}
