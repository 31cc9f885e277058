package run

import (
	"fmt"
	"time"

	"repro/internal/component"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// osNode bundles one node's per-run state on top of the deployment layer
// for the one-shot drivers.
type osNode struct {
	*node.Node
	idx int
	// byz marks a node the scenario ever scripts Byzantine: it keeps
	// running (and misbehaving) but is excluded from completion barriers
	// and from the honest-safety checks.
	byz  bool
	inst protocol.Instance
	done bool
}

// oneShotLifecycle adapts a slice of osNodes to the scenario engine. Crash
// takes the node off the air immediately and excludes it from the epoch
// barrier; recovery re-admits it at the next epoch boundary (one-shot
// epochs have no mid-epoch join protocol — contrast with the chain
// workload, which rejoins mid-run), so done stays set until then.
func oneShotLifecycle(nodes []*osNode) lifecycle {
	l := lifecycle{crashed: func(i int) {
		nodes[i].inst = nil  // in-memory epoch state is gone
		nodes[i].done = true // excluded from the epoch barrier
	}}
	for _, n := range nodes {
		l.nodes = append(l.nodes, n.Node)
	}
	return l
}

// runOneShot executes the SingleHop × OneShot cell.
func runOneShot(spec Spec) (*Report, error) {
	byzN := spec.Scenario.ByzNodes()
	if err := byzPerGroup(byzN, 1, spec.N, spec.F); err != nil {
		return nil, err
	}
	sched := sim.New(spec.Seed)
	ch := wireless.NewChannel(sched, spec.Net)

	suites, err := crypto.DealCached(spec.N, spec.F, spec.Crypto, spec.Seed^0x5eed)
	if err != nil {
		return nil, err
	}
	ncfg := node.Config{Transport: spec.Transport, Batched: spec.Batched, Seed: spec.Seed}
	nodes := make([]*osNode, spec.N)
	for i := range nodes {
		nodes[i] = &osNode{Node: node.New(sched, ch, wireless.NodeID(i), suites[i], ncfg), idx: i, byz: byzN[i]}
	}
	eng := scenario.Start(sched, spec.Scenario, spec.Seed, oneShotLifecycle(nodes))
	ch.SetDeliveryHook(eng.Hook())

	rep := spec.report()
	os := &OneShotReport{}
	rep.OneShot = os
	for epoch := 0; epoch < spec.Workload.Epochs; epoch++ {
		start := sched.Now()
		for _, n := range nodes {
			n.startEpoch(sched, uint16(epoch), spec, nil)
		}
		err := node.Drive(sched, start+spec.Deadline, func() bool { return allHonestDone(nodes) })
		if err != nil {
			return nil, fmt.Errorf("run: epoch %d (%s %s batched=%v): %w",
				epoch, spec.Protocol, spec.Coin, spec.Batched, err)
		}
		os.EpochLatencies = append(os.EpochLatencies, sched.Now()-start)
		os.DeliveredTxs += countTxs(nodes, spec.Workload.TxSize)
		insts := make([]protocol.Instance, 0, len(nodes))
		for _, n := range nodes {
			// Agreement is an honest-node property: a Byzantine node's own
			// engine is not bound by what it told its peers.
			if !n.Down() && !n.byz && n.inst != nil {
				insts = append(insts, n.inst)
			}
		}
		if err := protocol.AgreementCheck(insts); err != nil {
			return nil, fmt.Errorf("run: epoch %d safety violation: %w", epoch, err)
		}
	}

	finishOneShot(rep, sched)
	chst := ch.Stats()
	rep.Accesses = chst.Accesses
	rep.Collisions = chst.Collisions
	rep.Frames = chst.Frames
	rep.BytesOnAir = chst.BytesOnAir
	deployed := make([]*node.Node, len(nodes))
	for i, n := range nodes {
		deployed[i] = n.Node
	}
	foldNodeStats(rep, deployed)
	return rep, nil
}

// startEpoch rebuilds the node's components for a fresh epoch and submits
// its proposal. onDone, if non-nil, fires when the node decides the epoch
// locally (the clustered driver chains the global tier off it).
func (n *osNode) startEpoch(sched *sim.Scheduler, epoch uint16, spec Spec, onDone func()) {
	n.done = false
	n.inst = nil
	if n.Down() {
		n.done = true // crashed nodes never finish; exclude from barrier
		return
	}
	tr := n.Transport()
	tr.SetEpoch(epoch)
	env := &component.Env{
		N:       spec.N,
		F:       spec.F,
		Me:      n.idx,
		Epoch:   epoch,
		Session: n.TransportConfig().Session,
		Suite:   n.Suite,
		T:       tr,
		CPU:     n.CPU,
		Sched:   sched,
		Rand:    n.Rand,
	}
	n.inst = protocol.NewInstance(env, spec.Protocol, spec.Coin, spec.Batched, spec.Encrypt, func() {
		n.done = true
		if onDone != nil {
			onDone()
		}
	})
	n.inst.Start(protocol.MakeProposal(n.idx, int(epoch), spec.Workload.BatchSize, spec.Workload.TxSize))
}

func allHonestDone(nodes []*osNode) bool {
	for _, n := range nodes {
		if !n.done && !n.byz {
			return false
		}
	}
	return true
}

// countTxs counts the transactions accepted this epoch (from the first
// honest node's output; agreement tests verify outputs match).
func countTxs(nodes []*osNode, txSize int) int {
	for _, n := range nodes {
		if n.Down() || n.byz || n.inst == nil {
			continue
		}
		total := 0
		for _, prop := range n.inst.Outputs() {
			total += len(prop) / txSize
		}
		return total
	}
	return 0
}

// finishOneShot derives the mean latency and throughput measurements.
func finishOneShot(rep *Report, sched *sim.Scheduler) {
	os := rep.OneShot
	var sum time.Duration
	for _, l := range os.EpochLatencies {
		sum += l
	}
	if len(os.EpochLatencies) > 0 {
		os.MeanLatency = sum / time.Duration(len(os.EpochLatencies))
	}
	rep.Duration = sched.Now()
	if now := sched.Now(); now > 0 {
		os.TPM = float64(os.DeliveredTxs) / now.Minutes()
	}
}

// foldNodeStats sums the deployment nodes' transport counters into the
// flat Report fields.
func foldNodeStats(rep *Report, nodes []*node.Node) {
	ts := node.SumStats(nodes)
	rep.LogicalSent = ts.LogicalSent
	rep.SignOps = ts.SignOps
	rep.VerifyOps = ts.VerifyOps
	rep.Rejected = ts.Rejected
}
