// Package node is the deployment layer: it assembles one simulated
// consensus participant — CPU, frame authentication, radio station, and
// either a single-epoch core.Transport or an epoch-pipelining core.Mux —
// from a crypto suite and a transport configuration. internal/run's group
// builder and the bench rigs build their nodes here instead of
// hand-wiring the same five objects.
//
// The layer also owns the node fault lifecycle the scenario engine drives:
// Crash takes the node off the air (inbound gate closed, radio queue
// flushed, transports stopped, in-memory state forfeited) and Recover
// brings it back with only its "stable storage" — keys, station, and
// whatever state the protocol layer chose to persist — and the node's
// trust status: a node armed with a byz.Behavior (SetBehavior) becomes
// actively Byzantine, its outbound component state rewritten by the
// behavior before it reaches the air.
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
	// Transport is the template transport configuration. If all tuning
	// fields (FlushDelay, RetxInterval, MaxQueue) are zero it is replaced
	// by core.DefaultConfig, keeping the Session.
	Transport core.Config
	// Batched selects ConsensusBatcher vs the per-instance baseline.
	Batched bool
	// Seed is the run seed; the node's private RNG is derived from it and
	// the node index.
	Seed int64
	// CPU, if non-nil, shares an existing compute core instead of creating
	// one (a multihop leader's global-tier radio is a second interface on
	// the same processor).
	CPU *sim.CPU
}

// resolve returns the effective transport configuration.
func (c Config) resolve() core.Config {
	tcfg := c.Transport
	if tcfg.FlushDelay == 0 && tcfg.RetxInterval == 0 && tcfg.MaxQueue == 0 {
		session := tcfg.Session
		tcfg = core.DefaultConfig(c.Batched)
		tcfg.Session = session
	}
	tcfg.Batched = c.Batched
	return tcfg
}

// Node is one wired participant. Exactly one of Transport()/Mux() is live,
// depending on the constructor used.
type Node struct {
	ID    wireless.NodeID
	CPU   *sim.CPU
	Suite *crypto.Suite
	// Rand is the node's private randomness (local coins, repair jitter),
	// derived from the run seed and node index.
	Rand *rand.Rand

	sched   *sim.Scheduler
	tcfg    core.Config
	station *wireless.Station
	recv    wireless.Receiver // the live transport or mux
	tr      *core.Transport
	mux     *core.Mux
	down    bool
	closed  core.Stats // counters of transports discarded by Crash

	behavior byz.Behavior
	icept    *byz.Interceptor
}

// New wires a single-transport node (the one-shot drivers and bench rigs).
func New(sched *sim.Scheduler, ch *wireless.Channel, id wireless.NodeID, suite *crypto.Suite, cfg Config) *Node {
	n := newBare(sched, ch, id, suite, cfg)
	n.tr = core.New(sched, n.CPU, nil, n.auth(), n.tcfg)
	n.tr.BindStation(n.station)
	n.recv = n.tr
	return n
}

// NewMux wires an epoch-mux node (the SMR pipeline): per-epoch transports
// are opened through Mux() as the chain advances.
func NewMux(sched *sim.Scheduler, ch *wireless.Channel, id wireless.NodeID, suite *crypto.Suite, cfg Config) *Node {
	n := newBare(sched, ch, id, suite, cfg)
	n.mux = core.NewMux(sched, n.CPU, n.auth(), n.tcfg)
	n.mux.BindStation(n.station)
	n.recv = n.mux
	return n
}

func newBare(sched *sim.Scheduler, ch *wireless.Channel, id wireless.NodeID, suite *crypto.Suite, cfg Config) *Node {
	cpu := cfg.CPU
	if cpu == nil {
		cpu = sim.NewCPU(sched)
	}
	n := &Node{
		ID:    id,
		CPU:   cpu,
		Suite: suite,
		Rand:  rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		sched: sched,
		tcfg:  cfg.resolve(),
	}
	n.station = ch.Attach(id, n)
	return n
}

// auth builds the frame authenticator from the suite's signature scheme,
// charging the suite's virtual sign/verify costs.
func (n *Node) auth() core.Auth {
	return &core.SizedAuth{
		Len:        n.Suite.Signer.Scheme().SignatureLen(),
		CostSign:   n.Suite.Cost.PKSign,
		CostVerify: n.Suite.Cost.PKVerify,
	}
}

// Transport returns the single-epoch transport (New-constructed nodes).
func (n *Node) Transport() *core.Transport { return n.tr }

// Mux returns the epoch mux (NewMux-constructed nodes).
func (n *Node) Mux() *core.Mux { return n.mux }

// Env returns the node's component environment as member ID of a group of
// size nodes tolerating f faults: the one place a node's parts become what
// the components run on. T is the single-epoch transport; a mux node's
// caller sets it, with Epoch, for every epoch it opens.
func (n *Node) Env(size, f int) *component.Env {
	return &component.Env{
		N: size, F: f, Me: int(n.ID),
		Session: n.tcfg.Session,
		Suite:   n.Suite,
		T:       n.tr,
		CPU:     n.CPU,
		Sched:   n.sched,
		Rand:    n.Rand,
	}
}

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// SetBehavior arms (or, with nil, disarms) an active-Byzantine behavior:
// an interceptor seeded from the node's private randomness is installed
// on the live transport — for mux nodes, on every open and future epoch
// transport — and survives crash/recovery (a restarted adversary is still
// an adversary).
func (n *Node) SetBehavior(b byz.Behavior) {
	n.behavior = b
	if b == nil {
		n.icept = nil
	} else {
		n.icept = &byz.Interceptor{Rand: n.Rand, Sched: n.sched, Behavior: b}
	}
	n.installInterceptor()
}

func (n *Node) installInterceptor() {
	var ic core.Interceptor
	if n.icept != nil {
		ic = n.icept
	}
	if n.mux != nil {
		n.mux.SetInterceptor(ic)
	} else if n.tr != nil {
		n.tr.SetInterceptor(ic)
	}
}

// Behavior returns the armed Byzantine behavior, or nil for an honest
// node.
func (n *Node) Behavior() byz.Behavior { return n.behavior }

// ReceiveFrame implements wireless.Receiver: the node is the station's
// receiver so that crash/recovery can gate inbound delivery and swap the
// underlying transport without re-attaching to the channel.
func (n *Node) ReceiveFrame(from wireless.NodeID, payload []byte) {
	if n.down || n.recv == nil {
		return
	}
	n.recv.ReceiveFrame(from, payload)
}

// Crash takes the node off the air: inbound frames are discarded, the
// radio queue is flushed, and the transport (every open epoch, for mux
// nodes) is stopped. Counters survive; in-memory protocol state does not.
// Idempotent.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	if n.mux != nil {
		n.mux.Stop() // closed-epoch counters accumulate inside the mux
	} else if n.tr != nil {
		n.closed = core.AddStats(n.closed, n.tr.Stats())
		n.tr.Stop()
		n.tr = nil
		n.recv = nil
	}
	n.station.Reset()
}

// Recover brings a crashed node back with amnesia: a fresh transport on
// the same station and keys (mux nodes keep their mux — Crash already
// closed every epoch, so it holds no protocol state). The protocol layer
// decides what "stable storage" survived and how to rejoin. Idempotent.
func (n *Node) Recover() {
	if !n.down {
		return
	}
	n.down = false
	if n.mux == nil {
		n.tr = core.New(n.sched, n.CPU, nil, n.auth(), n.tcfg)
		n.tr.BindStation(n.station)
		n.recv = n.tr
		n.installInterceptor()
	}
}

// Stats returns the node's cumulative transport counters, including
// transports discarded by crashes and, for mux nodes, closed epochs.
func (n *Node) Stats() core.Stats {
	s := n.closed
	if n.mux != nil {
		s = core.AddStats(s, n.mux.Stats())
	}
	if n.tr != nil {
		s = core.AddStats(s, n.tr.Stats())
	}
	return s
}

var _ wireless.Receiver = (*Node)(nil)
