package run

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/protocol"
)

// Clustered × OneShot: the paper's Sec. V-B two-tier deployment. M
// single-hop clusters each run local consensus on their own channel; one
// rotating leader per cluster joins a global tier on a separate channel,
// which orders the clusters' proposals; leaders then disseminate the
// global order back into their clusters. This file is the global-tier
// half of a one-shot group (oneshot.go runs the epochs).
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

// attachGlobal wires this epoch's cluster leader into the global tier and
// builds the epoch's global consensus instance.
func (g *oneShotGroup) attachGlobal(epoch uint16, spec Spec) {
	g.leader = int(epoch) % len(g.nodes)
	g.resultSent = false
	leader := g.nodes[g.leader]
	// The seat persists while leaders rotate: it is only as Byzantine as
	// the node currently occupying it.
	g.seat.SetBehavior(leader.Node.Behavior())
	g.seat.Mux().Close(epoch - 1)
	env := g.seat.Env(g.clusters, (g.clusters-1)/3)
	env.Epoch, env.T = epoch, g.seat.Mux().Open(epoch)
	env.Rand = leader.Rand // the seat draws from its occupant's randomness
	// The global tier runs the family's own engine, on cluster digests:
	// public values, so nothing to encrypt.
	g.global = protocol.NewInstance(env, spec.Protocol, protocol.Options{
		Coin: spec.Coin, SharedCoin: spec.Batched, OnDecide: func() { g.publishResult(epoch) },
	})
}

// listen makes every member that started the epoch finish it on the
// leader's global RESULT. A node that recovers mid-epoch has no epoch open;
// it sits the rest of the epoch out and rejoins at the next boundary.
func (g *oneShotGroup) listen(epoch uint16) {
	for _, n := range g.nodes {
		tr := n.Mux().Lookup(epoch)
		if tr == nil {
			continue
		}
		tr.Register(packet.KindGlobal, core.HandlerFunc(func(from uint16, sec packet.Section) {
			if sec.Phase == packet.PhaseFinish && int(from) == g.leader {
				n.finished = true
			}
		}))
	}
}

// publishResult broadcasts the global order into the cluster. The leader
// itself completes at this point.
func (g *oneShotGroup) publishResult(epoch uint16) {
	if g.resultSent {
		return
	}
	leader := g.nodes[g.leader]
	tr := leader.Mux().Lookup(epoch)
	if tr == nil {
		return // a leader that crashed this epoch cannot disseminate; the epoch stalls
	}
	g.resultSent = true
	var digest []byte
	for _, out := range g.global.Outputs() {
		d := sha256.Sum256(out)
		digest = append(digest, d[:8]...)
	}
	tr.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindGlobal, Phase: packet.PhaseFinish, Slot: 0},
		Data:      digest,
	})
	leader.finished = true
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
