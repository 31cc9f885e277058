package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// This file holds what the sweeps share. Every sweep in the package is a
// sweep.Grid over either run.Spec (protocol-level experiments) or a small
// local cell struct (component rigs, crypto microbenchmarks); the grid
// declares *what* varies and the engine owns *how* cells execute. Row
// order in every emitted table and trajectory file is grid enumeration
// order, which reproduces the historical nested-loop order of the
// pre-engine drivers — the committed BENCH files did not reorder when the
// loops were deleted.

// specPoint sets the protocol family on a run.Spec, replicating
// run.Defaults' coupling of Encrypt to the family (Dumbo runs without the
// threshold-encryption censorship defense).
func specPoint(name string, kind protocol.Kind, coin protocol.CoinKind) sweep.Point[run.Spec] {
	return sweep.Point[run.Spec]{Label: name, Apply: func(s *run.Spec) {
		s.Protocol, s.Coin = kind, coin
		s.Encrypt = protocol.DefaultEncrypt(kind)
	}}
}

// protoAxis is the two-family protocol axis of the SMR sweeps.
func protoAxis() sweep.Axis[run.Spec] {
	return sweep.Axis[run.Spec]{Name: "protocol", Points: []sweep.Point[run.Spec]{
		specPoint("HB-SC", protocol.HoneyBadger, protocol.CoinSig),
		specPoint("Dumbo-SC", protocol.DumboKind, protocol.CoinSig),
	}}
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

// transportAxis selects ConsensusBatcher vs the per-instance baseline.
func transportAxis() sweep.Axis[run.Spec] {
	return sweep.Axis[run.Spec]{Name: "transport", Points: []sweep.Point[run.Spec]{
		{Label: "batched", Apply: func(s *run.Spec) { s.Batched = true }},
		{Label: "baseline", Apply: func(s *run.Spec) { s.Batched = false }},
	}}
}

// depthAxis sweeps the chain pipeline depth.
func depthAxis(depths ...int) sweep.Axis[run.Spec] {
	return sweep.Over("depth", depths, nil, func(s *run.Spec, d int) { s.Workload.Window = d })
}

// chainBase is the shared base Spec of the sustained-SMR sweeps: chain
// workload at 1 s client interval (proposals always full), protocol and
// transport left to the axes.
func chainBase(ctx *Context) run.Spec {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Seed = ctx.Seed
	spec.Workload = run.Chain(ctx.ChainEpochs)
	spec.Workload.TxInterval = time.Second
	return spec
}

// byzPlan arms f = (N-1)/3 replicas — the highest-numbered ones — with one
// active-Byzantine behavior from t=0. It reads the Spec's N, so the axis
// point using it must come after any axis that changes the group size.
func byzPlan(s *run.Spec, behavior string) scenario.Plan {
	plan := scenario.Plan{}
	for i := 0; i < node.Faults(s.N); i++ {
		plan = plan.Then(scenario.ByzAt(0, s.N-1-i, behavior))
	}
	return plan
}

// crashRecover is the crash/recover cycle the fault sweeps share, placed
// against the ~22 s epoch cadence of batched HoneyBadger: the crash lands
// around its epoch 8, the recovery after its fault-free run would have
// ended (earlier epochs of the slower configurations); a run ends once the
// recovered node caught up.
func crashRecover() scenario.Plan {
	return scenario.Plan{}.Then(
		scenario.CrashAt(3*time.Minute, 2),
		scenario.RecoverAt(6*time.Minute, 2),
	)
}

// figSeeds is how many seeds each figure point averages over: common-coin
// round counts are luck-driven, so single-seed points are noisy. On the
// grid the seeds are their own (innermost) axis, so the engine runs every
// (point, seed) cell independently and seedMeans averages results per
// outer grid point.
const figSeeds = 5

// sample is one seed's measurement of a figure point; the component
// figures leave TPM zero.
type sample struct {
	Latency time.Duration
	TPM     float64
}

// seedMeans runs grid with a figSeeds-point averaging axis appended and
// returns one result per outer grid point, holding the mean over its
// seeds. The seed derivation (seed + s*1009) is historical and keeps
// figure trajectories comparable across PRs. Grouping by the cells' axis
// coordinates (results arrive in grid order, so a group is a consecutive
// run) keeps the association correct when -filter drops some seeds or
// points, and lets callers read axis values off the group's Labels and
// Coords instead of re-deriving positions arithmetically.
func seedMeans[C any](name string, grid sweep.Grid[C], seed int64, setSeed func(*C, int64), opts sweep.Options,
	exec func(C) (sample, error)) ([]sweep.Result[sample], error) {
	seeds := make([]int64, figSeeds)
	for s := range seeds {
		seeds[s] = seed + int64(s)*1009
	}
	grid.Axes = append(grid.Axes, sweep.Over("seed", seeds, nil, setSeed))
	results, err := sweep.Run(grid, opts, func(c sweep.Cell[C]) (sample, error) {
		v, err := exec(c.Config)
		if err != nil {
			return sample{}, fmt.Errorf("bench: %s %s: %w", name, c.Name(), err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	outer := len(grid.Axes) - 1
	var out []sweep.Result[sample]
	for i := 0; i < len(results); {
		m := sweep.Result[sample]{Coords: results[i].Coords[:outer], Labels: results[i].Labels[:outer]}
		n := 0
		for ; i < len(results) && slices.Equal(results[i].Coords[:outer], m.Coords); i++ {
			m.Value.Latency += results[i].Value.Latency
			m.Value.TPM += results[i].Value.TPM
			n++
		}
		m.Value.Latency /= time.Duration(n)
		m.Value.TPM /= float64(n)
		out = append(out, m)
	}
	return out, nil
}
