package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// Mux is one node's ConsensusBatcher: everything node-scoped, once — the
// scheduler, CPU, keys and configuration, the station, the interceptor, the
// send state (one fragment sequence space, the packet-building storage),
// one reassembly buffer per peer and the one frame decoder — and the open
// epochs, each a Transport holding that epoch's intents, NACK rows,
// handlers, timers and counters. It is the layer underneath both
// workloads: protocol.Chain keeps a window of epochs open and closes them
// behind its commit frontier once its peers are past them (Heard); a
// one-shot run opens an epoch at each boundary and closes the one before.
// A node's sequence space therefore runs on across its epochs and across a
// crash.
//
// Outbound, the Mux is its station's wireless.Source: when the station wins
// the medium it builds frames from whatever its epochs have dirty at that
// instant. Batched, one win serves every open epoch with something to send:
// each builds its own signed packet, in epoch order, and the packets go out
// in one burst (wireless.Station.Follow), so a node pays one contention for
// its whole pipeline. The per-instance baseline serves one epoch per win,
// round-robin over the epochs with something to send, so that no epoch
// starves another. Contention for the one shared medium is what turns into
// batching across the whole pipeline.
//
// Inbound, ReceiveFrame is the one receive path. It first notes the
// sender's turn — when this node last heard any radio frame from each
// station, which paces every epoch's unasked re-sends — and then routes:
// frames for epochs that are not (or no longer) open are counted and
// dropped before any CPU is charged; once the receiver opens the epoch,
// its first frames carry NACK rows with nothing done, which bring the
// sender's state back on the air, and OnUnknownEpoch gives the SMR layer
// an early signal that a peer is already working on a future epoch.
type Mux struct {
	sched *sim.Scheduler
	cpu   *sim.CPU
	auth  Auth
	cfg   Config

	station *wireless.Station
	// epochs are the open epochs' transports, sorted by epoch.
	epochs []*Transport
	// windowOpen says the aggregation window of an idle node is running
	// (windowFn is m.windowClosed, bound once); ready says the node
	// contends for the medium. served is the epoch of the last frame a
	// baseline node built, where its round-robin resumes.
	windowOpen, ready bool
	windowFn          func()
	served            int
	out               sendState
	// jobFree recycles the records received packets wait on the CPU in.
	jobFree []*verifyJob
	reasm   reassembler
	// Every received packet is parsed by the one decoder: its frame lives
	// until the handlers return, see dispatch.
	dec   packet.Decoder
	icept Interceptor

	// OnUnknownEpoch, if set, is invoked when a frame for an epoch with no
	// open transport arrives. The callback may open the epoch, but the
	// triggering frame is still dropped (retransmission repairs it).
	OnUnknownEpoch func(epoch uint16)
	// heard is, by transmitting station, one past the highest epoch any of
	// its frames named (0: none heard).
	heard []int
	// lastHeard is, by transmitting station, when a radio frame of its last
	// reached this node (unheard: none has) — the turns the retransmission
	// policy paces unasked re-sends by (Transport.retransmit). paced says an
	// epoch holds a re-send back until the live station heard least
	// recently, last heard at awaited, is heard again.
	lastHeard []time.Duration
	paced     bool
	awaited   time.Duration

	closedStats Stats // accumulated counters of closed transports
	dropped     uint64
	droppedSess uint64
}

// NewMux creates a node's transport layer with no epoch open. cfg applies
// to every epoch (Session, FlushDelay, RetxInterval, Batched).
func NewMux(sched *sim.Scheduler, cpu *sim.CPU, auth Auth, cfg Config) *Mux {
	if cfg.FlushDelay <= 0 {
		cfg.FlushDelay = time.Millisecond
	}
	m := &Mux{sched: sched, cpu: cpu, auth: auth, cfg: cfg, served: -1}
	m.windowFn = m.windowClosed
	return m
}

// BindStation attaches the radio and makes the Mux its frame source.
// Construction is two-phase because the station's receiver is the Mux
// itself (or whatever forwards frames to it): attach the receiver to the
// channel, then bind the returned station.
func (m *Mux) BindStation(st *wireless.Station) {
	m.station = st
	if st != nil {
		st.SetSource(m)
	}
}

// flush starts the node contending for the medium: an idle node after the
// aggregation window, FlushDelay, so that a burst of updates shares its
// first frame; a node already contending at once.
func (m *Mux) flush() {
	switch {
	case m.ready:
		m.kick()
	case !m.windowOpen:
		m.windowOpen = true
		m.sched.PostAfter(m.cfg.FlushDelay, m.windowFn)
	}
}

// windowClosed ends the aggregation window: the node contends if an epoch
// still has something to send.
func (m *Mux) windowClosed() {
	m.windowOpen = false
	if m.ready = m.pending(); m.ready {
		m.kick()
	}
}

// kick tells the station, once there is one, that the node contends.
func (m *Mux) kick() {
	if m.station != nil {
		m.station.Kick()
	}
}

// next returns the open epoch a baseline node serves at its next win: the
// first after the last one served that has something to send, wrapping
// round, or nil when none has. Round-robin, so that an epoch with something
// new at every win — a NACK row that changes with every frame heard —
// cannot starve the others.
func (m *Mux) next() *Transport {
	var first *Transport
	for _, t := range m.epochs {
		if !t.pending() {
			continue
		}
		if int(t.epoch) > m.served {
			return t
		}
		if first == nil {
			first = t
		}
	}
	return first
}

var _ wireless.Source = (*Mux)(nil)

// Pending implements wireless.Source: the node contends, and an open epoch
// has something to send.
func (m *Mux) Pending() bool { return m.ready && m.pending() }

// pending reports whether an open epoch has something to send.
func (m *Mux) pending() bool { return slices.ContainsFunc(m.epochs, (*Transport).pending) }

// Build implements wireless.Source: the station has won the medium, and
// epochs build their frames now, from what they have dirty at this instant.
// Batched, every open epoch with something to send builds its packet, in
// epoch order: the lowest epoch's goes out at the win and each later one
// continues the burst once its own signature completes. Baseline, the next
// epoch in the round-robin builds its per-intent frames, each to go out at
// an access of its own, and the node goes on contending while another
// epoch has something to send.
func (m *Mux) Build() {
	if m.cfg.Batched {
		follows := false
		for _, t := range m.epochs {
			if t.pending() {
				t.build(follows)
				follows = true
			}
		}
	} else if t := m.next(); t != nil {
		m.served = int(t.epoch)
		t.build(false)
	}
	m.ready = m.pending()
}

// SetInterceptor installs (or, with nil, clears) the outbound-intent
// interceptor of every epoch, open or opened afterwards, so a node that
// turns Byzantine mid-run misbehaves across its whole pipeline. Honest
// nodes run without one.
func (m *Mux) SetInterceptor(ic Interceptor) { m.icept = ic }

// find returns where epoch's transport is in m.epochs, or would be
// inserted.
func (m *Mux) find(epoch uint16) (int, bool) {
	return slices.BinarySearchFunc(m.epochs, epoch, func(t *Transport, e uint16) int {
		return cmp.Compare(t.epoch, e)
	})
}

// Open creates (or returns) the transport for an epoch.
func (m *Mux) Open(epoch uint16) *Transport {
	i, ok := m.find(epoch)
	if ok {
		return m.epochs[i]
	}
	t := &Transport{m: m, epoch: epoch, retxEvt: new(sim.Event)}
	t.retxFn = t.retransmit
	m.epochs = slices.Insert(m.epochs, i, t)
	return t
}

// Lookup returns the open transport for an epoch, or nil.
func (m *Mux) Lookup(epoch uint16) *Transport {
	if i, ok := m.find(epoch); ok {
		return m.epochs[i]
	}
	return nil
}

// OpenEpochs returns the open epochs in ascending order.
func (m *Mux) OpenEpochs() []uint16 {
	out := make([]uint16, len(m.epochs))
	for i, t := range m.epochs {
		out[i] = t.epoch
	}
	return out
}

// Close stops and discards an epoch's transport, folding its counters into
// the mux-level stats. This is the epoch garbage collection hook: after
// Close, the epoch's intents, NACK maps, and timers are gone and inbound
// frames for it are dropped.
func (m *Mux) Close(epoch uint16) {
	i, ok := m.find(epoch)
	if !ok {
		return
	}
	t := m.epochs[i]
	t.Stop()
	m.closedStats = AddStats(m.closedStats, t.Stats())
	m.epochs = slices.Delete(m.epochs, i, i+1)
	m.ready = m.ready && m.pending()
}

// Stop closes every open epoch.
func (m *Mux) Stop() {
	for _, e := range m.OpenEpochs() {
		m.Close(e)
	}
}

// Heard returns the highest epoch a frame from station named, or -1 if
// none was heard. The epoch is read from the header before the frame is
// authenticated: it says what a peer claims to be working on, which is all
// the SMR layer's epoch GC asks of it.
func (m *Mux) Heard(station int) int {
	if station < 0 || station >= len(m.heard) {
		return -1
	}
	return m.heard[station] - 1
}

// DroppedUnknownEpoch counts reassembled frames discarded because their
// epoch had no open transport.
func (m *Mux) DroppedUnknownEpoch() uint64 { return m.dropped }

// DroppedSession counts reassembled frames discarded for an unparsable
// header or a session mismatch (foreign or corrupted traffic), and radio
// frames whose fragment header names another sender than the station that
// transmitted them.
func (m *Mux) DroppedSession() uint64 { return m.droppedSess }

// NoteRejected counts one node-level discard of refused inbound state
// that belongs to no single epoch's transport — the chain layer calls it
// for mempool admission-control rejections, so backpressure drops surface
// in the same Stats.Rejected counter Byzantine discards use.
func (m *Mux) NoteRejected() { m.closedStats.Rejected++ }

// Stats aggregates counters across closed and still-open transports.
func (m *Mux) Stats() Stats {
	s := m.closedStats
	for _, t := range m.epochs {
		s = AddStats(s, t.Stats())
	}
	s.DroppedEpoch += m.dropped
	return s
}

// AddStats sums two transport counter snapshots field-by-field. Deployment
// layers use it to fold discarded transports into run-level aggregates.
func AddStats(a, b Stats) Stats {
	a.LogicalSent += b.LogicalSent
	a.FragmentsSent += b.FragmentsSent
	a.BytesSent += b.BytesSent
	a.LogicalRecv += b.LogicalRecv
	a.AuthFailures += b.AuthFailures
	a.DroppedEpoch += b.DroppedEpoch
	a.SignOps += b.SignOps
	a.VerifyOps += b.VerifyOps
	a.Rejected += b.Rejected
	return a
}

var _ wireless.Receiver = (*Mux)(nil)

// ReceiveFrame implements wireless.Receiver, the node's one receive path:
// reassemble, then route by the frame header's epoch. Authentication
// happens inside the routed transport, on the node's CPU.
func (m *Mux) ReceiveFrame(from wireless.NodeID, payload []byte) {
	m.noteTurn(from)
	raw, ok, forged := m.reasm.feed(from, payload)
	if forged {
		m.droppedSess++
	}
	if !ok {
		return
	}
	_, session, epoch, ok := packet.PeekHeader(raw)
	if !ok || session != m.cfg.Session {
		m.droppedSess++
		return
	}
	for int(from) >= len(m.heard) {
		m.heard = append(m.heard, 0)
	}
	m.heard[from] = max(m.heard[from], int(epoch)+1)
	t := m.Lookup(epoch)
	if t == nil {
		m.dropped++
		if m.OnUnknownEpoch != nil {
			m.OnUnknownEpoch(epoch)
		}
		return
	}
	t.receiveLogical(raw)
}

// unheard is the lastHeard of a station no frame has come from.
const unheard = time.Duration(math.MinInt64)

// noteTurn records that a radio frame from station from reached this node
// now — any frame, before reassembly, authenticated or not. When it is the
// turn the paced epochs were waiting for, they look again.
func (m *Mux) noteTurn(from wireless.NodeID) {
	for int(from) >= len(m.lastHeard) {
		m.lastHeard = append(m.lastHeard, unheard)
	}
	prev := m.lastHeard[from]
	m.lastHeard[from] = m.sched.Now()
	if !m.paced || prev > m.awaited {
		return // nothing waits, or not for this station's turn
	}
	m.paced = false
	for _, t := range m.epochs {
		if t.paced {
			t.paced = false
			t.resend()
		}
	}
}

// liveWindow is how long a station counts as taking turns after its last
// frame: RetxInterval << maxAge, by when every re-send schedule has come
// round, so a peer silent for that long is not taking turns.
func (m *Mux) liveWindow() time.Duration { return m.cfg.RetxInterval << maxAge }

// oldestTurn returns when the live station heard least recently was last
// heard, or never when no station is live: one whose last frame is less
// than the live window old.
func (m *Mux) oldestTurn(now time.Duration) time.Duration {
	oldest := never
	for _, at := range m.lastHeard {
		if at > now-m.liveWindow() && at < oldest {
			oldest = at
		}
	}
	return oldest
}
