// Package node is the deployment layer: it assembles one simulated
// consensus participant — CPU, frame authentication, radio station and the
// core.Mux its epochs are opened on — from a crypto suite and a transport
// configuration. internal/run's group builder and the bench rigs build
// their nodes here instead of hand-wiring the same five objects.
//
// The layer also owns the node fault lifecycle the scenario engine drives:
// Crash takes the node off the air (inbound gate closed, radio queue
// flushed, every open epoch closed, in-memory state forfeited) and Recover
// brings it back with only its "stable storage" — keys, station, fragment
// sequence number, and whatever state the protocol layer chose to persist —
// and the node's trust status: a node armed with a byz.Behavior
// (SetBehavior) becomes actively Byzantine, its outbound component state
// rewritten by the behavior before it reaches the air.
package node

import (
	"math/rand"

	"repro/internal/byz"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// Config bundles the per-node wiring parameters every driver shares.
type Config struct {
	// Transport is the node's transport configuration: the drivers pass
	// core.DefaultConfig with the group's session.
	Transport core.Config
	// Seed is the run seed; the node's private RNG is derived from it and
	// the node index.
	Seed int64
}

// Faults is f, the number of faults a group of n = 3f+1 nodes tolerates.
func Faults(n int) int { return (n - 1) / 3 }

// Node is one wired participant.
type Node struct {
	ID    wireless.NodeID
	CPU   *sim.CPU
	Suite *crypto.Suite
	// Rand is the node's private randomness (local coins, repair jitter),
	// derived from the run seed and node index.
	Rand *rand.Rand

	sched   *sim.Scheduler
	session uint32
	station *wireless.Station
	mux     *core.Mux
	down    bool
}

// New wires a node with no epoch open: its caller opens each epoch's
// transport on Mux() and closes it when the epoch is over.
func New(sched *sim.Scheduler, ch *wireless.Channel, id wireless.NodeID, suite *crypto.Suite, cfg Config) *Node {
	cpu := sim.NewCPU(sched)
	n := &Node{
		ID:      id,
		CPU:     cpu,
		Suite:   suite,
		Rand:    rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		sched:   sched,
		session: cfg.Transport.Session,
	}
	// The frame authenticator is sized by the suite's signature scheme and
	// charges the suite's virtual sign/verify costs.
	n.mux = core.NewMux(sched, cpu, &core.SizedAuth{
		Len:        suite.SigLen,
		CostSign:   suite.Cost.PKSign,
		CostVerify: suite.Cost.PKVerify,
	}, cfg.Transport)
	n.station = ch.Attach(id, n)
	n.mux.BindStation(n.station)
	return n
}

// Mux returns the node's transport layer.
func (n *Node) Mux() *core.Mux { return n.mux }

// Env returns the node's component environment as member ID of a group of
// size nodes, tolerating Faults(size): the one place a node's parts become
// what the components run on. Epoch and T are the caller's to set, for
// every epoch it opens.
func (n *Node) Env(size int) *component.Env {
	return &component.Env{
		N: size, F: Faults(size), Me: int(n.ID),
		Session: n.session,
		Suite:   n.Suite,
		CPU:     n.CPU,
		Sched:   n.sched,
		Rand:    n.Rand,
	}
}

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// SetBehavior arms an active-Byzantine behavior: an interceptor seeded
// from the node's private randomness covers every open and future epoch
// and survives crash/recovery (a restarted adversary is still an
// adversary).
func (n *Node) SetBehavior(b byz.Behavior) {
	n.mux.SetInterceptor(&byz.Interceptor{Rand: n.Rand, Sched: n.sched, Behavior: b})
}

// ReceiveFrame implements wireless.Receiver: the node is the station's
// receiver so that a crash can gate inbound delivery.
func (n *Node) ReceiveFrame(from wireless.NodeID, payload []byte) {
	if n.down {
		return
	}
	n.mux.ReceiveFrame(from, payload)
}

// Crash takes the node off the air: inbound frames are discarded, the
// radio queue is flushed, and every open epoch is closed. Counters and the
// fragment sequence number survive; in-memory protocol state does not.
// Idempotent.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.mux.Stop()
	n.station.Reset()
}

// Recover brings a crashed node back with amnesia: the same station, keys
// and mux, no epoch open. The protocol layer decides what "stable storage"
// survived and how to rejoin. Idempotent.
func (n *Node) Recover() { n.down = false }

// Stats returns the node's cumulative transport counters, closed epochs
// included.
func (n *Node) Stats() core.Stats { return n.mux.Stats() }

var _ wireless.Receiver = (*Node)(nil)
