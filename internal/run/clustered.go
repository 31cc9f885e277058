package run

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// Clustered × OneShot: the paper's Sec. V-B two-tier deployment. M
// single-hop clusters each run local consensus on their own channel; one
// rotating leader per cluster joins a global tier on a separate channel
// (the paper uses separate channels to avoid interference), which orders
// the clusters' proposals; leaders then disseminate the global order back
// into their clusters.
//
// The Scenario applies across the deployment: node indices are flat
// (cluster*PerCluster + in-cluster index), crash/recovery and byz events
// act on the cluster nodes (a Byzantine node that becomes its cluster's
// leader carries its behavior onto the global tier with it), partitions
// act on the cluster channels, and the network-level effects (loss, jam,
// delay) also cover the global channel. Crashing a node that is the
// cluster leader for the current epoch stalls that cluster's global seat
// for the epoch — the one-shot deployment has no leader failover, so such
// a scenario ends in a deadline error, which is itself a measurable
// outcome. The same applies to a Byzantine leader that withholds its
// RESULT dissemination: followers have no way to distinguish it from a
// dead one, so script Byzantine nodes that stay followers (or accept the
// stall as the measurement) until a failover mechanism exists. (The
// Clustered × Chain cell rotates relay duty away from dead or scripted
// nodes — see mhchain.go.)

type oneShotCluster struct {
	idx   int
	ch    *wireless.Channel
	nodes []*osNode
	// Global-tier state: one persistent seat per cluster, occupied by the
	// epoch's leader.
	global     *node.Node
	leader     int // index within cluster this epoch
	globalInst protocol.Instance
	resultSent bool
	// Followers' completion flags.
	gotResult []bool
}

// runClusteredOneShot executes the Clustered × OneShot cell.
func runClusteredOneShot(spec Spec) (*Report, error) {
	M, P := spec.Topology.Clusters, spec.Topology.PerCluster
	byzN := spec.Scenario.ByzNodes()
	if err := byzPerGroup(byzN, M, P, spec.F); err != nil {
		return nil, err
	}
	sched := sim.New(spec.Seed)
	fg := (M - 1) / 3

	globalCh := wireless.NewChannel(sched, spec.Net)
	globalSuites, err := crypto.DealCached(M, fg, spec.Crypto, spec.Seed^0x61)
	if err != nil {
		return nil, err
	}

	ncfg := node.Config{Transport: spec.Transport, Batched: spec.Batched, Seed: spec.Seed}
	clusters := make([]*oneShotCluster, M)
	var flat []*osNode // scenario node-id space: cluster*PerCluster + i
	for c := range clusters {
		ch := wireless.NewChannel(sched, spec.Net)
		suites, err := crypto.DealCached(P, spec.F, spec.Crypto, spec.Seed+int64(c)*101)
		if err != nil {
			return nil, err
		}
		cl := &oneShotCluster{idx: c, ch: ch, gotResult: make([]bool, P)}
		for i := 0; i < P; i++ {
			n := &osNode{Node: node.New(sched, ch, wireless.NodeID(i), suites[i], ncfg), idx: i,
				byz: byzN[c*P+i]}
			cl.nodes = append(cl.nodes, n)
			flat = append(flat, n)
		}
		clusters[c] = cl
	}
	eng := scenario.Start(sched, spec.Scenario, spec.Seed, oneShotLifecycle(flat))
	for c, cl := range clusters {
		base := c * P
		cl.ch.SetDeliveryHook(eng.HookMapped(func(id wireless.NodeID) int { return base + int(id) }))
	}
	globalCh.SetDeliveryHook(eng.HookNetOnly())

	rep := spec.report()
	os := &OneShotReport{}
	rep.OneShot = os
	for epoch := 0; epoch < spec.Workload.Epochs; epoch++ {
		start := sched.Now()
		leaderIdx := epoch % P
		for c, cl := range clusters {
			cl.leader = leaderIdx
			cl.resultSent = false
			for i := range cl.gotResult {
				cl.gotResult[i] = false
			}
			// The global instance must exist before the leader's local
			// decision callback can feed it the cluster digest.
			cl.attachGlobal(sched, globalCh, globalSuites[c], uint16(epoch), spec, M)
			cl.startLocalEpoch(sched, uint16(epoch), spec)
		}
		done := func() bool {
			for _, cl := range clusters {
				for i := range cl.gotResult {
					// Only nodes participating in this epoch are waited on:
					// inst is nil for nodes that were down at the epoch start
					// or crashed mid-epoch, and stays nil for a node that
					// recovered mid-epoch (it has no RESULT handler yet; it
					// sits the rest of the epoch out and rejoins at the next
					// boundary, like the single-hop driver).
					if !cl.gotResult[i] && cl.nodes[i].inst != nil && !cl.nodes[i].byz {
						return false
					}
				}
			}
			return true
		}
		if err := node.Drive(sched, start+spec.Deadline, done); err != nil {
			return nil, fmt.Errorf("run: clustered epoch %d (%s %s): %w", epoch, spec.Protocol, spec.Coin, err)
		}
		os.EpochLatencies = append(os.EpochLatencies, sched.Now()-start)
		for _, cl := range clusters {
			os.DeliveredTxs += countTxs(cl.nodes, spec.Workload.TxSize)
		}
	}

	finishOneShot(rep, sched)
	var localChs []*wireless.Channel
	var nodes, seats []*node.Node
	for _, cl := range clusters {
		localChs = append(localChs, cl.ch)
		for _, n := range cl.nodes {
			nodes = append(nodes, n.Node)
		}
		seats = append(seats, cl.global)
	}
	foldTwoTierStats(rep, globalCh, localChs, nodes, seats)
	return rep, nil
}

// foldTwoTierStats folds a clustered deployment's counters into the
// Report: every cluster channel plus the global channel, and every
// cluster node plus the global-tier seats (whose signed packets are also
// recorded per-tier). Shared by both clustered drivers so a counter
// added to one tier fold cannot silently go missing from the other.
func foldTwoTierStats(rep *Report, globalCh *wireless.Channel, localChs []*wireless.Channel, nodes, seats []*node.Node) {
	tiers := rep.Tiers
	if tiers == nil {
		tiers = &TierReport{}
		rep.Tiers = tiers
	}
	tiers.GlobalAccesses = globalCh.Stats().Accesses
	for _, ch := range localChs {
		st := ch.Stats()
		tiers.LocalAccesses += st.Accesses
		rep.Collisions += st.Collisions
		rep.Frames += st.Frames
		rep.BytesOnAir += st.BytesOnAir
	}
	gst := globalCh.Stats()
	rep.Collisions += gst.Collisions
	rep.Frames += gst.Frames
	rep.BytesOnAir += gst.BytesOnAir
	all := append(append([]*node.Node(nil), nodes...), seats...)
	for _, s := range seats {
		if s != nil {
			tiers.GlobalLogicalSent += s.Stats().LogicalSent
		}
	}
	foldNodeStats(rep, all)
	rep.Accesses = tiers.LocalAccesses + tiers.GlobalAccesses
}

// startLocalEpoch starts every cluster member's epoch. The leader's local
// decision submits the cluster digest to the global tier — a completion
// callback, not a polling loop.
func (cl *oneShotCluster) startLocalEpoch(sched *sim.Scheduler, epoch uint16, spec Spec) {
	leader := cl.nodes[cl.leader]
	for _, n := range cl.nodes {
		var onDone func()
		if n == leader {
			inst := cl.globalInst
			onDone = func() { inst.Start(clusterDigest(leader, epoch)) }
		}
		n.startEpoch(sched, epoch, spec, onDone)
	}
	// Followers additionally listen for the leader's global RESULT.
	for i, n := range cl.nodes {
		if n.Down() {
			continue
		}
		i := i
		n.Transport().Register(packet.KindGlobal, core.HandlerFunc(func(from uint16, sec packet.Section) {
			if sec.Phase == packet.PhaseFinish && int(from) == cl.leader {
				cl.gotResult[i] = true
			}
		}))
	}
}

// attachGlobal wires this epoch's cluster leader into the global tier and
// builds the epoch's global consensus instance.
func (cl *oneShotCluster) attachGlobal(sched *sim.Scheduler, globalCh *wireless.Channel, suite *crypto.Suite, epoch uint16, spec Spec, clusters int) {
	leader := cl.nodes[cl.leader]
	if cl.global == nil {
		// The leader's radio on the global channel is a second interface;
		// compute, however, shares the node's single core. For simplicity
		// each seat keeps one deployment node attached across epochs.
		gcfg := node.Config{
			Transport: spec.Transport,
			Batched:   spec.Batched,
			Seed:      spec.Seed ^ 0x61,
			CPU:       leader.CPU,
		}
		gcfg.Transport.Session = globalSession(spec.Transport.Session)
		cl.global = node.New(sched, globalCh, wireless.NodeID(cl.idx), suite, gcfg)
	}
	// The seat persists while leaders rotate: it is only as Byzantine as
	// the node currently occupying it.
	cl.global.SetBehavior(leader.Node.Behavior())
	gtr := cl.global.Transport()
	gtr.SetEpoch(epoch)
	env := &component.Env{
		N:       clusters,
		F:       (clusters - 1) / 3,
		Me:      cl.idx,
		Epoch:   epoch,
		Session: cl.global.TransportConfig().Session,
		Suite:   suite,
		T:       gtr,
		CPU:     cl.global.CPU,
		Sched:   sched,
		Rand:    leader.Rand,
	}
	onGlobalDecide := func() { cl.publishResult(epoch) }
	switch spec.Protocol {
	case protocol.DumboKind:
		cl.globalInst = protocol.NewDumbo(env, protocol.DumboOptions{Coin: spec.Coin, Batched: spec.Batched, OnDecide: onGlobalDecide})
	default:
		coin := spec.Coin
		if spec.Protocol == protocol.BEAT && coin == "" {
			coin = protocol.CoinFlip
		}
		cl.globalInst = protocol.NewACS(env, protocol.ACSOptions{Coin: coin, Batched: spec.Batched, Encrypt: false, OnDecide: onGlobalDecide})
	}
}

// publishResult broadcasts the global order into the cluster. The leader
// itself completes at this point.
func (cl *oneShotCluster) publishResult(epoch uint16) {
	if cl.resultSent {
		return
	}
	leader := cl.nodes[cl.leader]
	if leader.Down() {
		return // a dead leader cannot disseminate; the epoch stalls
	}
	cl.resultSent = true
	var digest []byte
	for _, out := range cl.globalInst.Outputs() {
		d := sha256.Sum256(out)
		digest = append(digest, d[:8]...)
	}
	leader.Transport().Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindGlobal, Phase: packet.PhaseFinish, Slot: 0},
		Data:      digest,
	})
	cl.gotResult[cl.leader] = true
}

// clusterDigest summarizes a cluster's local output for the global tier.
func clusterDigest(leader *osNode, epoch uint16) []byte {
	h := sha256.New()
	var eb [2]byte
	binary.BigEndian.PutUint16(eb[:], epoch)
	h.Write(eb[:])
	for _, out := range leader.inst.Outputs() {
		h.Write(out)
	}
	return h.Sum(nil)
}
