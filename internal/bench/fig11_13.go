package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/sweep"
)

// LatencyPoint is one seed-averaged point of Fig. 11–13: a variant, its
// count on the figure's x axis (parallel instances, proposal packets,
// serial instances; unused by Fig. 13), the mean latency, and for the
// full-protocol figures the mean throughput.
type LatencyPoint struct {
	Variant string
	Count   int
	Latency time.Duration
	TPM     float64
}

// rigFigure declares one of Fig. 11a/11b/12a/12b: variants x counts 1..4
// on the x axis x averaging seeds, each cell one rig run.
type rigFigure struct {
	variants []Component
	// axis names the x axis — what the counts count — and labels the
	// cells for -filter ("RBC/parallel=3/seed=1").
	axis    string
	measure func(kind Component, count int, seed int64) (time.Duration, error)
	// row formats a table row (variant, count, latency); the header line
	// goes through it too, with header over the count column.
	row    string
	header string
}

// rigCell is the grid configuration of the rigFigure sweeps.
type rigCell struct {
	Kind  Component
	Count int
	Seed  int64
}

func (f rigFigure) entry(e Experiment) Experiment {
	counts := []int{1, 2, 3, 4}
	return declare(e, func(ctx *Context) ([]LatencyPoint, error) {
		grid := sweep.Grid[rigCell]{Axes: []sweep.Axis[rigCell]{
			sweep.Over("variant", f.variants,
				func(k Component) string { return string(k) },
				func(c *rigCell, k Component) { c.Kind = k }),
			sweep.Over(f.axis, counts, nil, func(c *rigCell, n int) { c.Count = n }),
		}}
		means, err := seedMeans(e.Name, grid, ctx.Seed, func(c *rigCell, s int64) { c.Seed = s }, ctx.sweepOpts(),
			func(c rigCell) (sample, error) {
				lat, err := f.measure(c.Kind, c.Count, c.Seed)
				return sample{Latency: lat}, err
			})
		if err != nil {
			return nil, err
		}
		rows := make([]LatencyPoint, len(means))
		for i, m := range means {
			rows[i] = LatencyPoint{Variant: m.Labels[0], Count: counts[m.Coords[1]], Latency: m.Value.Latency}
		}
		return rows, nil
	}, func(w io.Writer, title string, rows []LatencyPoint) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, f.row, "variant", f.header, "latency")
		for _, r := range rows {
			fmt.Fprintf(w, f.row, r.Variant, r.Count, r.Latency.Round(time.Millisecond))
		}
	})
}

// fig13Config is one of the paper's protocol configurations.
type fig13Config struct {
	Name    string
	Kind    protocol.Kind
	Coin    protocol.CoinKind
	Batched bool
}

// fig13Configs enumerates the paper's 8: five ConsensusBatcher-based and
// three baselines (shared-coin versions only, as the paper does for
// baselines).
var fig13Configs = []fig13Config{
	{"HoneyBadgerBFT-SC", protocol.HoneyBadger, protocol.CoinSig, true},
	{"HoneyBadgerBFT-LC", protocol.HoneyBadger, protocol.CoinLocal, true},
	{"Dumbo-SC", protocol.DumboKind, protocol.CoinSig, true},
	{"Dumbo-LC", protocol.DumboKind, protocol.CoinLocal, true},
	{"BEAT", protocol.BEAT, protocol.CoinFlip, true},
	{"HoneyBadgerBFT-SC-baseline", protocol.HoneyBadger, protocol.CoinSig, false},
	{"Dumbo-SC-baseline", protocol.DumboKind, protocol.CoinSig, false},
	{"BEAT-baseline", protocol.BEAT, protocol.CoinFlip, false},
}

// fig13 declares one of Fig. 13a/13b: the 8 configurations x averaging
// seeds on one topology.
func fig13(e Experiment, topo run.Topology, deadline time.Duration) Experiment {
	return declare(e, func(ctx *Context) ([]LatencyPoint, error) {
		base := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
		base.Topology = topo
		base.Workload = run.OneShot(ctx.Epochs)
		base.Workload.BatchSize = ctx.Batch
		base.Deadline = deadline
		grid := sweep.Grid[run.Spec]{Base: base, Axes: []sweep.Axis[run.Spec]{
			sweep.Over("config", fig13Configs,
				func(c fig13Config) string { return c.Name },
				func(s *run.Spec, c fig13Config) {
					specPoint(c.Name, c.Kind, c.Coin).Apply(s)
					s.Batched = c.Batched
				}),
		}}
		means, err := seedMeans(e.Name, grid, ctx.Seed, func(s *run.Spec, seed int64) { s.Seed = seed }, ctx.sweepOpts(),
			func(spec run.Spec) (sample, error) {
				res, err := run.Run(spec)
				if err != nil {
					return sample{}, err
				}
				return sample{Latency: res.OneShot.MeanLatency, TPM: res.OneShot.TPM}, nil
			})
		if err != nil {
			return nil, err
		}
		rows := make([]LatencyPoint, len(means))
		for i, m := range means {
			rows[i] = LatencyPoint{Variant: m.Labels[0], Latency: m.Value.Latency, TPM: m.Value.TPM}
		}
		return rows, nil
	}, func(w io.Writer, title string, rows []LatencyPoint) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-28s %12s %10s\n", "protocol", "latency", "TPM")
		for _, r := range rows {
			fmt.Fprintf(w, "%-28s %12s %10.1f\n", r.Variant, r.Latency.Round(time.Millisecond), r.TPM)
		}
	})
}
