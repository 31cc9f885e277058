package core

import (
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// Mux multiplexes several epochs' transports onto one radio. A single
// Transport is strictly epoch-scoped — SetEpoch wipes its state and frames
// for other epochs are dropped — which is fine for one-shot consensus but
// rules out pipelining. The Mux is the SMR-enabling layer underneath
// protocol.Chain: it owns the station, a shared fragment sequence space and
// one reassembly buffer per peer, and routes each reassembled logical
// packet to the open transport of the frame's epoch.
//
// Outbound, every per-epoch transport broadcasts through the shared
// station, so the channel backpressure (Config.MaxQueue) and the batching
// pressure it creates apply across the whole pipeline. Inbound, frames for
// epochs that are not (or no longer) open are counted and dropped; the
// sender's NACK retransmission machinery re-delivers their state once the
// receiver opens the epoch, and OnUnknownEpoch gives the SMR layer an early
// signal that a peer is already working on a future epoch.
type Mux struct {
	sched *sim.Scheduler
	cpu   *sim.CPU
	auth  Auth
	cfg   Config // template for per-epoch transports

	station *wireless.Station
	epochs  map[uint16]*Transport
	out     sendState
	reasm   reassembler
	icept   Interceptor // propagated onto every per-epoch transport

	// OnUnknownEpoch, if set, is invoked when a frame for an epoch with no
	// open transport arrives. The callback may open the epoch, but the
	// triggering frame is still dropped (retransmission repairs it).
	OnUnknownEpoch func(epoch uint16)

	closedStats Stats // accumulated counters of closed transports
	dropped     uint64
	droppedSess uint64
}

// NewMux creates an epoch demultiplexer. cfg is the template every
// per-epoch transport is created from (Session, FlushDelay, RetxInterval,
// MaxQueue, Batched).
func NewMux(sched *sim.Scheduler, cpu *sim.CPU, auth Auth, cfg Config) *Mux {
	return &Mux{
		sched:  sched,
		cpu:    cpu,
		auth:   auth,
		cfg:    cfg,
		epochs: make(map[uint16]*Transport),
	}
}

// BindStation attaches the radio, mirroring Transport's two-phase
// construction: attach the Mux to the channel as the receiver, then bind
// the returned station.
func (m *Mux) BindStation(st *wireless.Station) {
	m.station = st
	for _, t := range m.epochs {
		t.BindStation(st)
	}
}

// SetInterceptor installs (or clears) the outbound-intent interceptor on
// every open epoch's transport and every transport opened afterwards, so a
// node that turns Byzantine mid-run misbehaves across its whole pipeline.
func (m *Mux) SetInterceptor(ic Interceptor) {
	m.icept = ic
	for _, t := range m.epochs {
		t.SetInterceptor(ic)
	}
}

// Open creates (or returns) the transport for an epoch. The transport
// shares the mux's station, CPU, auth, send state (fragment sequence space
// and packet-building storage), and interceptor.
func (m *Mux) Open(epoch uint16) *Transport {
	if t, ok := m.epochs[epoch]; ok {
		return t
	}
	t := newTransport(m.sched, m.cpu, m.station, m.auth, m.cfg, &m.out)
	t.epoch = epoch
	t.icept = m.icept
	m.epochs[epoch] = t
	return t
}

// Lookup returns the open transport for an epoch, or nil.
func (m *Mux) Lookup(epoch uint16) *Transport { return m.epochs[epoch] }

// Open epochs in ascending order (diagnostics and tests).
func (m *Mux) OpenEpochs() []uint16 {
	out := make([]uint16, 0, len(m.epochs))
	for e := range m.epochs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Close stops and discards an epoch's transport, folding its counters into
// the mux-level stats. This is the epoch garbage collection hook: after
// Close, the epoch's intents, NACK maps, and timers are gone and inbound
// frames for it are dropped.
func (m *Mux) Close(epoch uint16) {
	t, ok := m.epochs[epoch]
	if !ok {
		return
	}
	t.Stop()
	m.closedStats = AddStats(m.closedStats, t.Stats())
	delete(m.epochs, epoch)
}

// Stop closes every open epoch.
func (m *Mux) Stop() {
	for _, e := range m.OpenEpochs() {
		m.Close(e)
	}
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

// ReceiveFrame implements wireless.Receiver: shared reassembly, then route
// by the frame header's epoch. Authentication happens inside the routed
// transport, exactly as in the single-epoch path.
func (m *Mux) ReceiveFrame(from wireless.NodeID, payload []byte) {
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
	t, open := m.epochs[epoch]
	if !open {
		m.dropped++
		if m.OnUnknownEpoch != nil {
			m.OnUnknownEpoch(epoch)
		}
		return
	}
	t.receiveLogical(raw)
}
