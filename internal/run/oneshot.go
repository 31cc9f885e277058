package run

import (
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/protocol"
)

// osNode bundles one node's per-epoch state on top of the deployment
// layer for the one-shot workload.
type osNode struct {
	*node.Node
	idx int
	// byz marks a node the scenario ever scripts Byzantine: it keeps
	// running (and misbehaving) but is excluded from completion barriers
	// and from the honest-safety checks.
	byz bool
	// inst is the epoch's engine; nil for a node that was down at the
	// epoch start or crashed during it (its in-memory epoch state is
	// gone). Recovery re-admits a node at the next epoch boundary —
	// one-shot epochs have no mid-epoch join protocol, unlike the chain
	// workload — so inst stays nil until then and the barrier skips it.
	inst protocol.Instance
	// finished marks the epoch complete at this node: its own decision on
	// single-hop, the global order heard from its leader under clustered.
	finished bool
}

// oneShotGroup is one consensus group of the one-shot workload and, under
// the clustered topology, its uplink to the global tier (clustered.go).
type oneShotGroup struct {
	nodes []*osNode
	// seat is the cluster's persistent seat on the global tier, occupied
	// by the epoch's leader; nil on single-hop.
	seat       *node.Node
	clusters   int
	leader     int               // index within the cluster this epoch
	global     protocol.Instance // the seat's engine this epoch
	resultSent bool
}

// runOneShot executes the one-shot workload on either topology: every
// group runs Epochs independent consensus epochs in lockstep, and under
// the clustered topology each group's rotating leader additionally orders
// the clusters' outputs on the global tier (clustered.go).
func runOneShot(spec Spec) (*Report, error) {
	d, err := newDeployment(spec)
	if err != nil {
		return nil, err
	}
	groups := make([]*oneShotGroup, len(d.locals))
	var flat []*osNode // scenario node-id space
	for c, g := range d.locals {
		og := &oneShotGroup{}
		for i, n := range g.nodes {
			og.nodes = append(og.nodes, &osNode{Node: n, idx: i, byz: d.byz[c*spec.N+i]})
		}
		if d.seats != nil {
			og.seat, og.clusters = d.seats.nodes[c], len(d.locals)
		}
		flat = append(flat, og.nodes...)
		groups[c] = og
	}
	d.wire(lifecycle{crashed: func(i int) { flat[i].inst = nil }})

	rep := spec.report()
	os := &OneShotReport{}
	rep.OneShot = os
	for epoch := 0; epoch < spec.Workload.Epochs; epoch++ {
		start := d.sched.Now()
		for _, g := range groups {
			g.startEpoch(uint16(epoch), spec)
		}
		err := node.Drive(d.sched, start+spec.Deadline, func() bool {
			for _, n := range flat {
				// Only honest nodes participating in this epoch are
				// waited on.
				if !n.finished && n.inst != nil && !n.byz {
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("run: %s epoch %d (%s %s batched=%v): %w",
				spec.Topology.Kind, epoch, spec.Protocol, spec.Coin, spec.Batched, err)
		}
		os.EpochLatencies = append(os.EpochLatencies, d.sched.Now()-start)
		var seats []protocol.Instance
		for c, g := range groups {
			// Agreement is an honest-node property: a Byzantine node's own
			// engine is not bound by what it told its peers — nor is the
			// seat it occupies as its cluster's leader.
			insts := make([]protocol.Instance, 0, len(g.nodes))
			for _, n := range g.nodes {
				if !n.Down() && !n.byz && n.inst != nil {
					insts = append(insts, n.inst)
				}
			}
			if err := protocol.AgreementCheck(insts); err != nil {
				return nil, fmt.Errorf("run: epoch %d group %d safety violation: %w", epoch, c, err)
			}
			// The outputs agree, so the first honest node's count is the
			// group's.
			if len(insts) > 0 {
				for _, prop := range insts[0].Outputs() {
					os.DeliveredTxs += len(prop) / spec.Workload.TxSize
				}
			}
			if leader := g.nodes[g.leader]; g.seat != nil && !leader.Down() && !leader.byz {
				seats = append(seats, g.global)
			}
		}
		if err := protocol.AgreementCheck(seats); err != nil {
			return nil, fmt.Errorf("run: epoch %d global tier safety violation: %w", epoch, err)
		}
	}

	d.fold(rep)
	var sum time.Duration
	for _, l := range os.EpochLatencies {
		sum += l
	}
	os.MeanLatency = sum / time.Duration(len(os.EpochLatencies))
	if rep.Duration > 0 {
		os.TPM = float64(os.DeliveredTxs) / rep.Duration.Minutes()
	}
	return rep, nil
}

// startEpoch starts every member's epoch. On single-hop a node's own
// decision finishes its epoch; under clustered the leader's decision
// feeds the cluster digest to the global tier instead — a completion
// callback, not a polling loop — and the epoch finishes when the global
// order comes back down.
func (g *oneShotGroup) startEpoch(epoch uint16, spec Spec) {
	if g.seat != nil {
		// The global instance must exist before the leader's local
		// decision callback can feed it the cluster digest.
		g.attachGlobal(epoch, spec)
	}
	for _, n := range g.nodes {
		var onDecide func()
		switch {
		case g.seat == nil:
			onDecide = func() { n.finished = true }
		case n.idx == g.leader:
			inst := g.global
			onDecide = func() { inst.Start(clusterDigest(n, epoch)) }
		default:
			onDecide = func() {} // a follower waits for its leader's RESULT
		}
		n.startEpoch(epoch, spec, onDecide)
	}
	if g.seat != nil {
		g.listen(epoch)
	}
}

// startEpoch rebuilds the node's components for a fresh epoch and submits
// its proposal. onDecide fires when the node decides the epoch locally.
func (n *osNode) startEpoch(epoch uint16, spec Spec, onDecide func()) {
	n.finished = false
	n.inst = nil
	if n.Down() {
		return // crashed nodes sit the epoch out
	}
	n.Mux().Close(epoch - 1)
	env := n.Env(spec.N, spec.F)
	env.Epoch, env.T = epoch, n.Mux().Open(epoch)
	n.inst = protocol.NewInstance(env, spec.Protocol, protocol.Options{
		Coin: spec.Coin, SharedCoin: spec.Batched, Encrypt: spec.Encrypt, OnDecide: onDecide,
	})
	n.inst.Start(protocol.MakeProposal(n.idx, int(epoch), spec.Workload.BatchSize, spec.Workload.TxSize))
}
