// Package bench is the experiment harness. registry.go declares every
// table and figure of the paper's evaluation (Table I, Fig. 10a–d,
// Fig. 11a–b, Fig. 12a–b, Fig. 13a–b) and every beyond-the-paper SMR
// sweep exactly once, as an Experiment: name, title, the committed golden
// file with the epoch count it was generated at, and one row function
// that runs a sweep.Grid on the parallel grid engine (internal/sweep).
// Experiment.Run is the one run step — rows, table, JSON/CSV sinks
// (emit.go) — and every consumer enumerates Experiments():
// cmd/wbft-bench for -list and -exp, the root package's
// BenchmarkExperiment/<name> and golden checks, and this package's smoke
// tests. grid.go holds the axes and the seed-averaged latency grid the
// entries share; components.go the one adapter between the component
// experiments and the rig below. EXPERIMENTS.md records paper-vs-measured
// shapes and the engine's determinism contract.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// ComponentRig is a 4-node single-hop network for component-level
// experiments (broadcast protocols and ABA in isolation, as in Fig. 11/12).
type ComponentRig struct {
	Sched *sim.Scheduler
	Ch    *wireless.Channel
	Envs  []*component.Env
}

// NewComponentRig builds the rig. Batched selects the transport mode.
func NewComponentRig(seed int64, batched bool, cfg crypto.Config, net wireless.Config) (*ComponentRig, error) {
	const n = 4
	sched := sim.New(seed)
	ch := wireless.NewChannel(sched, net)
	suites, err := crypto.DealCached(n, node.Faults(n), cfg, seed^0xbe)
	if err != nil {
		return nil, err
	}
	rig := &ComponentRig{Sched: sched, Ch: ch}
	ncfg := node.Config{Transport: core.DefaultConfig(batched), Seed: seed}
	for i := 0; i < n; i++ {
		nd := node.New(sched, ch, wireless.NodeID(i), suites[i], ncfg)
		env := nd.Env(n)
		env.T = nd.Mux().Open(0)
		// The rig keeps its historical RNG derivation so component
		// benchmark trajectories stay comparable across PRs.
		env.Rand = rand.New(rand.NewSource(seed + int64(i)*337))
		rig.Envs = append(rig.Envs, env)
	}
	return rig, nil
}

// RunUntil drives the simulation until done() or the virtual deadline
// (node.Drive), returning the completion time.
func (r *ComponentRig) RunUntil(deadline time.Duration, done func() bool) (time.Duration, error) {
	if err := node.Drive(r.Sched, deadline, done); err != nil {
		return 0, fmt.Errorf("bench: experiment did not converge: %w", err)
	}
	return r.Sched.Now(), nil
}

// LogicalPerNode returns the mean signed logical packets sent per node.
func (r *ComponentRig) LogicalPerNode() float64 {
	var total uint64
	for _, env := range r.Envs {
		total += env.T.Stats().LogicalSent
	}
	return float64(total) / float64(len(r.Envs))
}
