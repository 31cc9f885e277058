package run

import (
	"repro/internal/byz"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// group is one consensus group: n nodes holding the shares of one
// dealing, attached as stations 0..n-1 of one single-hop channel.
type group struct {
	ch    *wireless.Channel
	nodes []*node.Node
}

// deployment is the skeleton every matrix cell runs on: one scheduler and
// the consensus groups on it. The paper's Sec. V-B deployment is
// "single-hop clusters plus a global tier running the same protocol", so a
// cluster is a single-hop deployment and single-hop is the one-group case.
type deployment struct {
	spec  Spec
	sched *sim.Scheduler
	// byz is the set of flat node ids the scenario ever scripts Byzantine.
	byz map[int]bool
	// locals are the groups the scenario acts on: group c's node i is flat
	// scenario id c*spec.N + i.
	locals []*group
	// seats is the clustered topology's global tier — seat c is cluster
	// c's uplink on a separate channel (the paper uses separate channels
	// to avoid interference); nil on single-hop.
	seats *group
}

// newDeployment builds the Spec's groups. Nothing here touches the
// scheduler's queue or RNG, so construction order is free; start order is
// not, and stays with the callers.
func newDeployment(spec Spec) (*deployment, error) {
	clusters := 1
	if spec.Topology.Kind == TopoClustered {
		clusters = spec.Topology.Clusters
	}
	d := &deployment{spec: spec, sched: sim.New(spec.Seed), byz: spec.Scenario.ByzNodes()}
	if err := byzPerGroup(d.byz, clusters, spec.N); err != nil {
		return nil, err
	}
	cfg := node.Config{Transport: core.DefaultConfig(spec.Batched), Seed: spec.Seed}
	for c := 0; c < clusters; c++ {
		dealSeed := spec.Seed ^ 0x5eed
		if spec.Topology.Kind == TopoClustered {
			dealSeed = spec.Seed + int64(c)*101
		}
		g, err := d.newGroup(spec.N, dealSeed, cfg)
		if err != nil {
			return nil, err
		}
		d.locals = append(d.locals, g)
	}
	if spec.Topology.Kind != TopoClustered {
		return d, nil
	}
	// The global tier is domain-separated from the local one: its own
	// dealing, node seeds and transport session.
	cfg.Seed = spec.Seed ^ 0x61
	cfg.Transport.Session = globalSession
	// A seat is a second radio+MCU of its own.
	var err error
	d.seats, err = d.newGroup(clusters, spec.Seed^0x61, cfg)
	return d, err
}

// newGroup deals n suites tolerating node.Faults(n) from dealSeed and
// wires one node per suite onto a fresh channel.
func (d *deployment) newGroup(n int, dealSeed int64, cfg node.Config) (*group, error) {
	suites, err := crypto.DealCached(n, node.Faults(n), d.spec.Crypto, dealSeed)
	if err != nil {
		return nil, err
	}
	g := &group{ch: wireless.NewChannel(d.sched, d.spec.Net), nodes: make([]*node.Node, n)}
	for i := range g.nodes {
		g.nodes[i] = node.New(d.sched, g.ch, wireless.NodeID(i), suites[i], cfg)
	}
	return g, nil
}

// wire starts the scenario engine over the flat local node space and
// installs every channel's delivery hook. The caller's lifecycle supplies
// what crash, recovery and arming mean for the state it keeps beside the
// nodes. Node-keyed effects (partitions, mobility, duty-cycling) act on
// the local channels through each group's flat id base; the global
// channel's stations are outside the scenario's id space, so it sees the
// network-level effects (loss, jam, delay) only.
func (d *deployment) wire(l lifecycle) {
	for _, g := range d.locals {
		l.nodes = append(l.nodes, g.nodes...)
	}
	eng := scenario.Start(d.sched, d.spec.Scenario, d.spec.Seed, l)
	for c, g := range d.locals {
		base := c * d.spec.N
		g.ch.SetDeliveryHook(eng.HookMapped(func(id wireless.NodeID) int { return base + int(id) }))
	}
	if d.seats != nil {
		d.seats.ch.SetDeliveryHook(eng.HookNetOnly())
	}
}

// fold stamps the run's virtual duration and sums every channel's and
// every node's counters into the Report's flat fields — one fold for
// every cell, so a counter added here cannot go missing from one of them.
// Under the clustered topology the global tier's share is also split out
// into Tiers.
func (d *deployment) fold(rep *Report) {
	rep.Duration = d.sched.Now()
	addChannel := func(g *group) uint64 {
		st := g.ch.Stats()
		rep.Accesses += st.Accesses
		rep.Collisions += st.Collisions
		rep.Frames += st.Frames
		rep.BytesOnAir += st.BytesOnAir
		rep.Held += st.Held
		return st.Accesses
	}
	var nodes []*node.Node
	for _, g := range d.locals {
		addChannel(g)
		nodes = append(nodes, g.nodes...)
	}
	if d.seats != nil {
		rep.Tiers = &TierReport{LocalAccesses: rep.Accesses}
		rep.Tiers.GlobalAccesses = addChannel(d.seats)
		rep.Tiers.GlobalLogicalSent = node.SumStats(d.seats.nodes).LogicalSent
		nodes = append(nodes, d.seats.nodes...)
	}
	ts := node.SumStats(nodes)
	rep.LogicalSent = ts.LogicalSent
	rep.SignOps = ts.SignOps
	rep.VerifyOps = ts.VerifyOps
	rep.Rejected = ts.Rejected
	rep.EntryBytes = ts.Entries
}

// lifecycle adapts a deployment to the scenario engine. The bounds check,
// the idempotence guard on node.Down, and the arming of a Byzantine
// behavior live here once; a cell supplies only what crash and recovery
// mean for the state it keeps beside each node.
type lifecycle struct {
	nodes []*node.Node // in scenario node-id order; filled by deployment.wire
	// recovered, if set, restarts what the driver keeps beside node i,
	// which is back with everything it held when it crashed.
	recovered func(i int)
	// armed, if set, extends a byz event beyond node i itself.
	armed func(i int, b byz.Behavior)
}

// NodeCount implements scenario.Lifecycle.
func (l lifecycle) NodeCount() int { return len(l.nodes) }

// CrashNode implements scenario.Lifecycle.
func (l lifecycle) CrashNode(i int) {
	if i < 0 || i >= len(l.nodes) || l.nodes[i].Down() {
		return
	}
	l.nodes[i].Crash()
}

// RecoverNode implements scenario.Lifecycle.
func (l lifecycle) RecoverNode(i int) {
	if i < 0 || i >= len(l.nodes) || !l.nodes[i].Down() {
		return
	}
	l.nodes[i].Recover()
	if l.recovered != nil {
		l.recovered(i)
	}
}

// SetByzantine implements scenario.Lifecycle. The behavior survives
// crash and recovery and covers every epoch of the node, open and future.
// Names were validated before the run.
func (l lifecycle) SetByzantine(i int, behavior string) {
	if i < 0 || i >= len(l.nodes) {
		return
	}
	b, err := byz.New(behavior)
	if err != nil {
		return
	}
	l.nodes[i].SetBehavior(b)
	if l.armed != nil {
		l.armed(i, b)
	}
}
