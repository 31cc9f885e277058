// Package node is the deployment layer: it assembles one simulated
// consensus participant — CPU, frame authentication, radio station and the
// core.Mux its epochs are opened on — from a crypto suite and a transport
// configuration. internal/run's group builder and the bench rigs build
// their nodes here instead of hand-wiring the same five objects.
//
// The layer also owns the node fault lifecycle the scenario engine drives.
// A crash pauses the node: Crash closes the inbound gate, flushes the
// radio queue and stops the node's transport (core.Mux.Crash) — it no
// longer contends or re-sends, and no timer of its runs — but the node
// keeps everything it holds: its keys, station and fragment sequence
// number, every open epoch with its intents, NACK rows and component
// state, and all of the protocol layer's state. CPU work charged before
// the crash still completes, as if the crash fell at its end; what it
// produces waits in the node's store, and nothing reaches the air.
// Recover re-arms the timers and the node contends again with what it
// held, so a recovered node never contradicts what it sent before. A node
// that comes back without its state is not a crashed node: it may
// contradict its own votes, which makes it Byzantine, and it counts
// against f. The layer also owns the node's trust status: a node armed
// with a byz.Behavior (SetBehavior) becomes actively Byzantine, its
// outbound component state rewritten by the behavior before it reaches
// the air.
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
	n.station = ch.Attach(id, n.mux)
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
func (n *Node) Down() bool { return n.mux.Down() }

// SetBehavior arms an active-Byzantine behavior: an interceptor seeded
// from the node's private randomness covers every open and future epoch
// and survives crash/recovery (a restarted adversary is still an
// adversary).
func (n *Node) SetBehavior(b byz.Behavior) {
	n.mux.SetInterceptor(&byz.Interceptor{Rand: n.Rand, Sched: n.sched, Behavior: b})
}

// Crash pauses the node: inbound frames are discarded, the radio queue is
// flushed, and its transport stops contending and re-sending
// (core.Mux.Crash). None of its timers runs while it is down: the
// transport's are disarmed, and the chain engine's and the components'
// run on the node's clock (core.Mux.Due), so one that comes due waits for
// recovery. Every open epoch and all protocol state survive. Idempotent.
func (n *Node) Crash() {
	n.mux.Crash()
	n.station.Reset()
}

// Recover resumes a crashed node with everything it held: the timers that
// came due while it was down run, its transport re-arms its own and
// contends again for what its open epochs have to send
// (core.Mux.Recover). Idempotent.
func (n *Node) Recover() { n.mux.Recover() }
