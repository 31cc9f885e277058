package run

import (
	"fmt"

	"repro/internal/byz"
	"repro/internal/node"
	"repro/internal/scenario"
)

// Run executes one experiment and returns its measurements. The Spec's
// two axes select the matrix cell:
//
//	SingleHop × OneShot — the paper's evaluation runs (Fig. 13a)
//	Clustered × OneShot — the Sec. V-B two-tier deployment (Fig. 13b)
//	SingleHop × Chain   — pipelined SMR on one channel
//	Clustered × Chain   — pipelined SMR per cluster, with rotating
//	                      relays ordering certified cluster cuts on the
//	                      global tier
//
// The topology picks the driver, runChain or runClusteredChain; a
// one-shot run is a depth-1 chain of Epochs epochs on it, fed fixed
// proposals instead of client traffic (oneshot.go). Zero-valued tuning
// fields are normalized to the workload defaults first; malformed axes
// fail before any virtual time elapses.
func Run(spec Spec) (*Report, error) {
	spec = spec.normalize()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := validateByz(spec.Scenario, spec.Nodes()); err != nil {
		return nil, err
	}
	if spec.Topology.Kind == TopoSingleHop {
		return runChain(spec)
	}
	return runClusteredChain(spec)
}

// validateByz rejects plans naming unknown Byzantine behaviors or
// out-of-range nodes before any virtual time elapses (the engine fires
// byz events mid-run, too late to surface an error — and a typo'd node
// id would otherwise yield a vacuously "Byzantine" run with no
// adversary in it).
func validateByz(plan scenario.Plan, n int) error {
	for _, ev := range plan.Events {
		if ev.Kind != scenario.KindByz {
			continue
		}
		if _, err := byz.New(ev.Behavior); err != nil {
			return err
		}
		if ev.Node < 0 || ev.Node >= n {
			return fmt.Errorf("run: byz event targets node %d, have nodes 0..%d", ev.Node, n-1)
		}
	}
	return nil
}

// byzPerGroup enforces the per-group Byzantine bound: at most f scripted
// Byzantine nodes in each consensus group of size per (the whole network
// when groups == 1).
func byzPerGroup(byzN map[int]bool, groups, per int) error {
	f := node.Faults(per)
	count := make([]int, groups)
	for nd := range byzN {
		count[nd/per]++
	}
	for g, cnt := range count {
		if cnt > f {
			if groups == 1 {
				return fmt.Errorf("run: %d Byzantine nodes exceed F=%d", cnt, f)
			}
			return fmt.Errorf("run: cluster %d has %d Byzantine nodes, exceeds F=%d", g, cnt, f)
		}
	}
	return nil
}

// globalSession is the global tier's session id; the local tier's is 0.
// It domain-separates the two tiers' coins and signed transcripts.
const globalSession uint32 = 0x006C0BA1
