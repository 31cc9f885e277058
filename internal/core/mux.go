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
// one reassembly buffer per peer, the one frame decoder and the node's
// counters (Stats), which every epoch counts into — and the open epochs,
// each a Transport holding that epoch's intents, NACK rows, handlers and
// timers. It is the layer underneath both workloads, which both run on
// protocol.Chain: it keeps a window of epochs open and closes them behind
// its commit frontier once its peers are past them (Heard). A node's
// sequence space runs on across its epochs and across a crash, so a
// receiver can tell a late packet from a newer one.
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
// frames for epochs that are not (or no longer) open are counted
// (Stats.DroppedEpoch) and dropped before any CPU is charged; once the
// receiver opens the epoch, its first frames carry NACK rows with nothing
// done, which bring the sender's state back on the air, and OnUnknownEpoch
// gives the SMR layer an early signal that a peer is already working on a
// future epoch.
type Mux struct {
	sched *sim.Scheduler
	cpu   *sim.CPU
	auth  *SizedAuth
	cfg   Config

	station *wireless.Station
	// epochs are the open epochs' transports, sorted by epoch.
	epochs []*Transport
	// windowOpen says the aggregation window of an idle node is running,
	// on the timer window (windowFn is m.windowClosed, bound once); ready
	// says the node contends for the medium. served is the epoch of the
	// last frame a baseline node built, where its round-robin resumes.
	windowOpen, ready bool
	window            *sim.Event
	windowFn          func()
	served            int
	out               sendState
	// down says the node has crashed (Crash): it hears, contends and
	// re-sends nothing, and its timers wait for Recover — the transports'
	// are disarmed, and the actions of the others that came due meanwhile
	// (Due) wait in deferred.
	down     bool
	deferred []func()
	// spare holds the intent stores and NACK rows of closed epochs, emptied,
	// for the epochs Open makes next: an epoch starts with the capacity its
	// predecessors grew, as it does with the send state.
	spare []epochStore
	// jobFree recycles the records received packets wait on the CPU in, and
	// pkts the buffers their bytes wait in.
	jobFree []*verifyJob
	pkts    packetBufs
	reasm   reassembler
	// Every received packet is parsed by the one decoder: its frame lives
	// until the handlers return, as the packet buffer does, see dispatch.
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

	stats       Stats // the node's counters, its epochs' included
	entries     EntryBytes
	droppedSess uint64
}

// NewMux creates a node's transport layer with no epoch open. cfg applies
// to every epoch (Session, RetxInterval, Batched).
func NewMux(sched *sim.Scheduler, cpu *sim.CPU, auth *SizedAuth, cfg Config) *Mux {
	m := &Mux{sched: sched, cpu: cpu, auth: auth, cfg: cfg, served: -1, window: new(sim.Event)}
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
// aggregation window, flushDelay, so that a burst of updates shares its
// first frame; a node already contending at once; a node that is down not
// until it recovers.
func (m *Mux) flush() {
	switch {
	case m.down:
	case m.ready:
		m.kick()
	case !m.windowOpen:
		m.windowOpen = true
		m.sched.Arm(m.window, flushDelay, m.windowFn)
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
	if m.down {
		return // won a contention round that began before the crash
	}
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
	if n := len(m.spare); n > 0 {
		t.live, t.rows = m.spare[n-1].live, m.spare[n-1].rows
		m.spare = m.spare[:n-1]
	}
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

// epochStore is an epoch's intent store and NACK rows, the storage that
// grows with what the epoch's components publish and hear.
type epochStore struct {
	live []liveIntent
	rows []nackRow
}

// Close stops and discards an epoch's transport. This is the epoch garbage
// collection hook: after Close, the epoch's intents, NACK rows, and timers
// are gone and inbound frames for it are dropped; what it counted stays in
// the node's Stats. The store and the rows are emptied and go to the next
// epoch Open makes, each row's table of the peers' bitmaps left in place
// past the end of the rows, every bitmap emptied, for the rows the next
// epoch makes (Transport.row); the closed transport keeps none of them,
// so a component that still writes to it writes to storage of its own.
func (m *Mux) Close(epoch uint16) {
	i, ok := m.find(epoch)
	if !ok {
		return
	}
	t := m.epochs[i]
	t.Stop()
	clear(t.live)
	for r := range t.rows {
		peers := t.rows[r].peers
		for j := range peers {
			peers[j] = peers[j][:0]
		}
		t.rows[r] = nackRow{peers: peers}
	}
	m.spare = append(m.spare, epochStore{live: t.live[:0], rows: t.rows[:0]})
	t.live, t.rows, t.nDirty = nil, nil, 0
	m.epochs = slices.Delete(m.epochs, i, i+1)
	m.ready = m.ready && m.pending()
}

// Crash pauses the node's transport layer: it drops every frame it is
// handed, stops contending for the medium and disarms its own timers — the
// aggregation window and each open epoch's retransmission timer — and the
// action of any other timer of the node's that comes due while it is down
// waits for Recover (Due). It closes no epoch: every intent, NACK row and
// handler is kept. What the node's CPU already had charged still
// completes, and what it produces waits in the store; the frames already
// queued are the station's to drop (wireless.Station.Reset). Idempotent.
func (m *Mux) Crash() {
	m.down, m.ready = true, false
	if m.windowOpen {
		m.window.Cancel()
		m.windowOpen = false
	}
	for _, t := range m.epochs {
		t.disarm()
	}
}

// Recover resumes a crashed transport layer: the actions of the timers
// that came due while it was down run, and each open epoch looks again at
// what is due to be re-sent — re-arming its timer for the rest — and puts its
// NACK rows on the air afresh, as a silent peer coming back asks with its
// first frame: an epoch whose every intent has settled meanwhile would
// otherwise never tell its peers what it still lacks. The node contends
// once an epoch has something to send. Idempotent.
func (m *Mux) Recover() {
	if !m.down {
		return
	}
	m.down, m.paced = false, false
	for _, fn := range m.deferred {
		fn()
	}
	m.deferred = nil
	for _, t := range m.epochs {
		t.paced = false
		t.rowsChanged = t.rowsChanged || slices.ContainsFunc(t.rows, func(r nackRow) bool { return r.bits != nil })
		t.resend()
	}
	if m.pending() {
		m.flush()
	}
}

// Down reports whether the node is crashed.
func (m *Mux) Down() bool { return m.down }

// Due runs fn, the action of a timer of the node's that has come due — a
// component's (Transport.After) or the chain engine's: at once, or, while
// the node is down, once it recovers, in the order the timers came due.
func (m *Mux) Due(fn func()) {
	if m.down {
		m.deferred = append(m.deferred, fn)
		return
	}
	fn()
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

// DroppedSession counts reassembled frames discarded for an unparsable
// header or a session mismatch (foreign or corrupted traffic), and radio
// frames whose fragment header names another sender than the station that
// transmitted them.
func (m *Mux) DroppedSession() uint64 { return m.droppedSess }

// NoteRejected counts one node-level discard of refused inbound state
// that belongs to no single epoch's transport — the chain layer calls it
// for mempool admission-control rejections, so backpressure drops surface
// in the same Stats.Rejected counter Byzantine discards use.
func (m *Mux) NoteRejected() { m.stats.Rejected++ }

// Stats returns a snapshot of the node's counters, across its open and
// closed epochs, with a copy of its entry-byte ledger.
func (m *Mux) Stats() Stats {
	s, e := m.stats, m.entries
	s.Entries = &e
	return s
}

// AddStats adds the node's counters and its entry-byte ledger into sum,
// giving sum a ledger of its own if it has none: deployment layers fold
// their nodes into one run-level aggregate, one ledger for all of them.
func (m *Mux) AddStats(sum *Stats) {
	b := &m.stats
	sum.LogicalSent += b.LogicalSent
	sum.FragmentsSent += b.FragmentsSent
	sum.LogicalRecv += b.LogicalRecv
	sum.AuthFailures += b.AuthFailures
	sum.DroppedEpoch += b.DroppedEpoch
	sum.SignOps += b.SignOps
	sum.VerifyOps += b.VerifyOps
	sum.Rejected += b.Rejected
	if sum.Entries == nil {
		sum.Entries = new(EntryBytes)
	}
	for k := range sum.Entries {
		for p := range sum.Entries[k] {
			for c := range sum.Entries[k][p] {
				sum.Entries[k][p][c] += m.entries[k][p][c]
			}
		}
	}
}

var _ wireless.Receiver = (*Mux)(nil)

// ReceiveFrame implements wireless.Receiver, the node's one receive path:
// reassemble, then route by the frame header's epoch. Authentication
// happens inside the routed transport, on the node's CPU. The payload is
// read only until ReceiveFrame returns: a routed packet is copied into one
// of the Mux's packet buffers (packetBufs), and a dropped one is not
// copied at all. A node that is down hears nothing.
func (m *Mux) ReceiveFrame(from wireless.NodeID, payload []byte) {
	if m.down {
		return
	}
	m.noteTurn(from)
	raw, seq, pooled, ok, forged := m.reasm.feed(from, payload, &m.pkts)
	if forged {
		m.droppedSess++
	}
	if !ok {
		return
	}
	t := m.route(from, raw)
	if t == nil {
		if pooled {
			m.pkts.put(raw)
		}
		return
	}
	if !pooled {
		raw = append(m.pkts.take(), raw...)
	}
	t.receiveLogical(uint16(from), raw, seq)
}

// route returns the open transport a packet station from transmitted goes
// to, by its header's session and epoch, or nil when the packet is
// dropped: unparsable, another session's, or an epoch not open here.
func (m *Mux) route(from wireless.NodeID, raw []byte) *Transport {
	_, session, epoch, ok := packet.PeekHeader(raw)
	if !ok || session != m.cfg.Session {
		m.droppedSess++
		return nil
	}
	for int(from) >= len(m.heard) {
		m.heard = append(m.heard, 0)
	}
	m.heard[from] = max(m.heard[from], int(epoch)+1)
	t := m.Lookup(epoch)
	if t == nil {
		m.stats.DroppedEpoch++
		if m.OnUnknownEpoch != nil {
			m.OnUnknownEpoch(epoch)
		}
	}
	return t
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
