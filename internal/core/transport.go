// Package core implements ConsensusBatcher, the paper's primary
// contribution: a transport that batches the messages of N parallel (or
// serial) consensus components into single wireless transmissions.
//
// Components express their outbound state as slot-granular Intents ("my
// ECHO vote for RBC instance 2 is h"). The batched transport merges all
// current intents of the same (kind, phase) into one packet section
// (vertical batching, Fig. 3/4 of the paper) and all pending sections into
// one signed frame (horizontal batching), paying for a single channel
// access. The baseline transport — the paper's comparison point — sends one
// signed frame per instance-level update, which is how the wired protocols
// behave when ported naively.
//
// Reliability is NACK-based (Sec. IV-B1): frames are state snapshots, a
// periodic retransmission timer re-broadcasts current state, and per-phase
// O(N) NACK bitmaps let peers suppress or trigger repairs. Frames larger
// than the radio MTU are fragmented and reassembled; a newer snapshot from
// the same sender supersedes any partial older one.
//
// A node has one Mux, which owns everything node-scoped, and one Transport
// per open epoch, which owns that epoch's state (mux.go); components talk
// to their epoch's Transport.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// IntentKey identifies one slot-granular contribution. Round is part of
// the identity so that state for adjacent ABA rounds coexists on the air
// (a lagging peer still needs round r while the sender is in r+1);
// components prune stale rounds explicitly.
type IntentKey struct {
	Kind  packet.Kind
	Phase packet.Phase
	Slot  uint8
	Sub   uint8
	Round uint16
}

// Intent is a component's current outbound state for one key. Updating an
// existing key replaces its data (state-snapshot semantics): a node's newer
// vote supersedes the older one.
type Intent struct {
	IntentKey
	Flags uint8
	Data  []byte
}

// Handler consumes inbound sections for one component kind.
type Handler interface {
	HandleSection(from uint16, sec packet.Section)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from uint16, sec packet.Section)

// HandleSection implements Handler.
func (f HandlerFunc) HandleSection(from uint16, sec packet.Section) { f(from, sec) }

// Interceptor rewrites a node's outbound intents before they enter the
// transport's snapshot state. It is the behavior-interposition point the
// active-Byzantine layer (internal/byz) hooks: the returned set replaces
// the intent, so an interceptor can pass it through unchanged, drop it
// (withholding), corrupt it, or fork conflicting variants (equivocation).
// The transport is passed so an interceptor can schedule later injections
// against the same epoch's state via Inject.
type Interceptor interface {
	Outbound(t *Transport, in Intent) []Intent
}

// Auth signs and verifies logical frames. RealAuth (package node) uses the
// crypto suite; SizedAuth produces correctly sized placeholder signatures
// for large honest-only sweeps, while still charging virtual compute cost.
type Auth interface {
	Sign(body []byte) ([]byte, error)
	Verify(sender uint16, body, sig []byte) error
	SignCost() time.Duration
	VerifyCost() time.Duration
}

// Config tunes a transport.
type Config struct {
	Session      uint32
	Batched      bool          // ConsensusBatcher vs baseline per-instance packets
	FlushDelay   time.Duration // aggregation window before assembling a frame
	RetxInterval time.Duration // NACK retransmission period (0 disables)
	MaxQueue     int           // station backpressure threshold, in frames
}

// DefaultConfig returns transport parameters calibrated for the LoRa-class
// channel: a short aggregation window and a retransmission period a few
// airtimes long.
func DefaultConfig(batched bool) Config {
	return Config{
		Batched:      batched,
		FlushDelay:   120 * time.Millisecond,
		RetxInterval: 4 * time.Second,
		MaxQueue:     3,
	}
}

// Stats counts transport-level work.
type Stats struct {
	LogicalSent   uint64 // signed logical packets
	FragmentsSent uint64 // radio frames handed to the station
	BytesSent     uint64
	LogicalRecv   uint64
	AuthFailures  uint64
	DroppedEpoch  uint64 // frames for other epochs
	SignOps       uint64
	VerifyOps     uint64
	// Rejected counts component-level discards of invalid inbound state:
	// threshold shares, certificates, and proofs that fail verification,
	// undecodable payloads, and equivocating proposals caught against a
	// quorum. Under an active-Byzantine scenario this is the measure of how
	// much adversarial traffic the defenses absorbed.
	Rejected uint64
}

// Transport is one epoch of a node's ConsensusBatcher (or baseline)
// instance: the epoch's intent store, NACK rows, handlers, timers and
// counters. Everything node-scoped — scheduler, CPU, radio, keys, the send
// and receive state — is its Mux's, once.
type Transport struct {
	m     *Mux
	epoch uint16
	// live is the intent store: every current intent, in wire (wireOrder)
	// order, so a flush is a walk and an update a binary search. nDirty of
	// them are dirty: updated, or due for rebroadcast, since last sent.
	live   []liveIntent
	nDirty int
	// nacks is one row per kind, indexed by phase, grown to the highest set.
	nacks    [packet.KindLimit][]packet.BitSet
	handlers [packet.KindLimit]Handler

	// flushArmed tracks whether a flush wait (flushWait) is already queued.
	// The wait carries no cancellation handle: after Stop it is no longer
	// blocked and wakes once as a no-op.
	flushArmed bool
	// retxEvt is the one retransmission timer, re-armed after each firing
	// (retxArmed: queued and not yet fired); retxFn is t.retransmit bound
	// once, because taking a method value allocates a closure each time.
	retxEvt   sim.Event
	retxArmed bool
	retxFn    func()
	stopped   bool
	// quiesced switches the periodic snapshot rebroadcast to exponential
	// backoff (retxBoost doubles per firing, capped). See Quiesce.
	quiesced  bool
	retxBoost int

	stats Stats
}

// sendState is what one node's epochs share on the way to the radio: the
// fragment sequence space (one node's frames across its epochs form a
// single one, so receivers keep one reassembly buffer per peer) and the
// storage packets are built in, so a new epoch's transport starts warm.
type sendState struct {
	seq uint32
	// jobFree recycles the records logical packets wait on the CPU in,
	// either way; an outbound one is encoded into its record's own buffer.
	jobFree []*cpuJob
	// Section and entry scratch, reused across flushes: sendLogical encodes
	// the frame body before returning, so the CPU queue never holds these.
	secScratch   []packet.Section
	entScratch   []packet.Entry
	startScratch []int
	fragBuf      []byte // every radio frame is built here; Broadcast copies it
}

// New creates a standalone transport: the single open epoch, 0, of a mux
// of its own. Frames received on the station must be routed to
// ReceiveFrame (wire the station's receiver to the transport at attach
// time).
func New(sched *sim.Scheduler, cpu *sim.CPU, station *wireless.Station, auth Auth, cfg Config) *Transport {
	m := NewMux(sched, cpu, auth, cfg)
	m.BindStation(station)
	return m.Open(0)
}

// Register installs the handler for a component kind. Re-registration
// replaces the previous handler (used at epoch changeover).
func (t *Transport) Register(kind packet.Kind, h Handler) { t.handlers[kind] = h }

// BindStation attaches the node's radio: Mux.BindStation, for a standalone
// transport that is itself the station's receiver.
func (t *Transport) BindStation(st *wireless.Station) { t.m.BindStation(st) }

// SetInterceptor is Mux.SetInterceptor on the transport's node.
func (t *Transport) SetInterceptor(ic Interceptor) { t.m.SetInterceptor(ic) }

// NoteRejected counts one component-level discard of invalid inbound
// state (see Stats.Rejected). Components call it through their Env when a
// share, certificate, proof, or proposal fails verification.
func (t *Transport) NoteRejected() { t.stats.Rejected++ }

// Stats returns a snapshot of the counters.
func (t *Transport) Stats() Stats { return t.stats }

// Stop cancels pending timers; the transport sends nothing further. A
// queued flush wait is not cancellable (it has no handle); it wakes as a
// no-op under the stopped guard.
func (t *Transport) Stop() {
	t.stopped = true
	t.retxEvt.Cancel()
}

// Quiesce backs the periodic snapshot rebroadcast off exponentially (2x
// per firing, capped at 16x the base interval) instead of firing at the
// base rate. An SMR pipeline quiesces an epoch once it decides locally:
// the epoch's state is final and mostly redundant on the air, but lagging
// peers may still need it, so it keeps flowing — just ever more slowly.
// Inbound repair requests still answer at full speed through the normal
// update/flush path, and Update/Remove keep working.
func (t *Transport) Quiesce() {
	if !t.quiesced {
		t.quiesced = true
		t.retxBoost = 1
	}
}

// Update upserts an intent and schedules a flush. With an interceptor
// installed, the intent first passes through it and whatever comes back —
// possibly nothing — is applied instead.
func (t *Transport) Update(in Intent) {
	if t.m.icept == nil {
		t.apply(in)
		return
	}
	for _, out := range t.m.icept.Outbound(t, in) {
		t.apply(out)
	}
}

// Inject upserts an intent bypassing the interceptor. Interceptors use it
// to plant delayed conflicting state (equivocation) without re-entering
// themselves.
func (t *Transport) Inject(in Intent) {
	if t.stopped {
		return
	}
	t.apply(in)
}

// liveIntent is one entry of the intent store.
type liveIntent struct {
	Intent
	dirty bool
}

// find returns where k is in the store, or where it would be inserted.
func (t *Transport) find(k IntentKey) (i int, found bool) {
	return slices.BinarySearchFunc(t.live, k.wireOrder(), func(e liveIntent, o uint64) int {
		return cmp.Compare(e.wireOrder(), o)
	})
}

func (t *Transport) apply(in Intent) {
	i, found := t.find(in.IntentKey)
	if !found {
		t.live = slices.Insert(t.live, i, liveIntent{})
	}
	e := &t.live[i]
	e.Intent = in
	if !e.dirty {
		e.dirty = true
		t.nDirty++
	}
	t.Flush()
	t.ensureRetx()
}

// Remove deletes an intent (the component completed that piece of state).
func (t *Transport) Remove(k IntentKey) {
	i, found := t.find(k)
	if !found {
		return
	}
	if t.live[i].dirty {
		t.nDirty--
	}
	t.live = slices.Delete(t.live, i, i+1)
}

// RemoveWhere deletes every intent whose key matches the predicate (used
// by the ABAs to prune state for stale rounds and halted instances).
func (t *Transport) RemoveWhere(pred func(IntentKey) bool) {
	t.live = slices.DeleteFunc(t.live, func(e liveIntent) bool {
		if !pred(e.IntentKey) {
			return false
		}
		if e.dirty {
			t.nDirty--
		}
		return true
	})
}

// SetNack installs the compressed O(N) NACK bitmap attached to every
// outbound section of (kind, phase).
func (t *Transport) SetNack(kind packet.Kind, phase packet.Phase, bits packet.BitSet) {
	row := t.nacks[kind]
	for len(row) <= int(phase) {
		row = append(row, nil)
	}
	row[phase] = bits.Clone()
	t.nacks[kind] = row
}

// nack returns the bitmap installed for (kind, phase), or nil.
func (t *Transport) nack(kind packet.Kind, phase packet.Phase) packet.BitSet {
	if row := t.nacks[kind]; int(phase) < len(row) {
		return row[phase]
	}
	return nil
}

// Flush schedules frame assembly after the aggregation window. Multiple
// calls within the window coalesce — this is where channel-contention
// pressure turns into batching opportunity.
func (t *Transport) Flush() {
	if t.stopped || t.flushArmed {
		return
	}
	t.flushArmed = true
	t.m.sched.WaitFixed(t.m.cfg.FlushDelay, (*flushWait)(t))
}

func (t *Transport) ensureRetx() {
	if t.stopped || t.m.cfg.RetxInterval <= 0 || t.retxArmed {
		return
	}
	base := t.m.cfg.RetxInterval
	if t.quiesced {
		base *= time.Duration(t.retxBoost)
	}
	jitter := time.Duration(float64(base) * (0.75 + 0.5*t.m.sched.Rand().Float64()))
	t.retxArmed = true
	t.m.sched.Arm(&t.retxEvt, jitter, t.retxFn)
}

// retransmit is the retransmission timer's callback.
func (t *Transport) retransmit() {
	t.retxArmed = false
	if t.stopped || len(t.live) == 0 {
		return
	}
	if t.quiesced && t.retxBoost < 16 {
		t.retxBoost *= 2
	}
	// Re-send the full current snapshot: NACK-driven repair.
	for i := range t.live {
		t.live[i].dirty = true
	}
	t.nDirty = len(t.live)
	t.Flush()
	t.ensureRetx()
}

// flushWait is the transport seen as the sim.Waiter that Flush arms: the
// aggregation window, then backpressure. While the radio queue is
// saturated the flush waits for it to drain, one FlushDelay at a time;
// intents keep accumulating, which *increases* the batch size — the
// mechanism by which contention feeds batching. Every period sat out
// keeps its place and its sequence number in the scheduler's order (a
// sparser wait would shift same-timestamp ties between a flush and a
// transmit completion, and with them the trajectory) but is no event.
type flushWait Transport

// Blocked implements sim.Waiter. A stopped transport, or one with nothing
// to send, is not blocked: it wakes once, to no effect.
func (w *flushWait) Blocked() bool {
	return !w.stopped && len(w.live) > 0 && w.m.station.QueueLen() >= w.m.cfg.MaxQueue
}

// Wake implements sim.Waiter: assemble and send.
func (w *flushWait) Wake() {
	t := (*Transport)(w)
	t.flushArmed = false
	if t.stopped || len(t.live) == 0 {
		return
	}
	if t.m.cfg.Batched {
		t.flushBatched()
	} else {
		t.flushBaseline()
	}
}

// flushBatched emits one logical frame carrying the node's entire current
// state: every (kind, phase) becomes a section (vertical batching), and all
// sections ride in the same frame (horizontal batching). Sections and
// entries are built in reused scratch; entry spans are attached after the
// walk because the entries slice may reallocate while growing.
func (t *Transport) flushBatched() {
	if t.nDirty == 0 {
		return
	}
	out := &t.m.out
	secs := out.secScratch[:0]
	ents := out.entScratch[:0]
	starts := out.startScratch[:0]
	for i := range t.live {
		e := &t.live[i]
		e.dirty = false
		if n := len(secs); n == 0 || secs[n-1].Kind != e.Kind || secs[n-1].Phase != e.Phase {
			secs = append(secs, packet.Section{Kind: e.Kind, Phase: e.Phase, Nack: t.nack(e.Kind, e.Phase)})
			starts = append(starts, len(ents))
		}
		ents = append(ents, packet.Entry{
			Slot: e.Slot, Sub: e.Sub, Round: e.Round, Flags: e.Flags, Data: e.Data,
		})
	}
	for i := range secs {
		end := len(ents)
		if i+1 < len(secs) {
			end = starts[i+1]
		}
		secs[i].Entries = ents[starts[i]:end]
	}
	out.secScratch, out.entScratch, out.startScratch = secs, ents, starts
	t.nDirty = 0
	t.sendLogical(secs)
}

// flushBaseline emits one logical frame per dirty intent — the unbatched
// deployment where every instance-phase event competes for the channel
// separately. The store is in wire order, so its dirty entries are sent
// in wire order as they are met.
func (t *Transport) flushBaseline() {
	out := &t.m.out
	for i := range t.live {
		e := &t.live[i]
		if !e.dirty {
			continue
		}
		e.dirty = false
		ents := append(out.entScratch[:0], packet.Entry{
			Slot: e.Slot, Sub: e.Sub, Round: e.Round, Flags: e.Flags, Data: e.Data,
		})
		secs := append(out.secScratch[:0], packet.Section{
			Kind: e.Kind, Phase: e.Phase, Nack: t.nack(e.Kind, e.Phase), Entries: ents,
		})
		out.secScratch, out.entScratch = secs, ents
		t.sendLogical(secs)
	}
	t.nDirty = 0
}

// sendLogical signs and fragments one logical packet. Signing is charged
// to the node's CPU before the frame reaches the radio. The body is
// encoded into the CPU job's own buffer before this returns — required so
// the caller's section/entry scratch can be reused — and the job record,
// buffer included, is recycled once the fragments (which Broadcast copies
// out of it) are on the air. Intent data and NACK bitmaps are snapshots
// that are never mutated in place, so encoding now and signing at the
// virtual completion time produce the same bytes the deferred encoding
// did.
func (t *Transport) sendLogical(sections []packet.Section) {
	frame := packet.Frame{
		Sender:   uint16(t.m.station.ID()),
		Session:  t.m.cfg.Session,
		Epoch:    t.epoch,
		Sections: sections,
	}
	j := t.job()
	body, err := frame.AppendBody(j.enc[:0])
	if err != nil {
		panic(fmt.Sprintf("core: frame encoding: %v", err))
	}
	j.send, j.enc, j.seq = true, body, t.m.out.seq
	t.m.out.seq++
	t.m.cpu.Exec(t.m.auth.SignCost(), j.run)
}

// cpuJob is one logical packet waiting on the node's CPU: for its signing
// time on the way out, for its verification time on the way in. Records
// are recycled through sendState.jobFree, so neither direction allocates a
// closure per packet, and an outbound packet is encoded, signed and
// fragmented in its record's own buffer.
type cpuJob struct {
	t    *Transport
	send bool
	enc  []byte // out: the encoded body, then the signed packet; kept for reuse
	seq  uint32 // out: fragment sequence number
	raw  []byte // in: the packet
	run  func() // j.exec, bound once
}

// job takes a CPU job record off the node's free list, or makes one.
func (t *Transport) job() *cpuJob {
	out := &t.m.out
	var j *cpuJob
	if n := len(out.jobFree); n > 0 {
		j, out.jobFree = out.jobFree[n-1], out.jobFree[:n-1]
	} else {
		j = new(cpuJob)
		j.run = j.exec
	}
	j.t = t
	return j
}

// exec runs at the job's completion time on the CPU: sign and broadcast,
// or verify and dispatch. The record goes back to the free list once
// nothing reads its buffer any more.
func (j *cpuJob) exec() {
	t := j.t
	if j.send {
		t.signAndBroadcast(j)
	} else {
		t.dispatch(j.raw)
	}
	j.t, j.raw = nil, nil
	t.m.out.jobFree = append(t.m.out.jobFree, j)
}

// signAndBroadcast completes sendLogical at the signing job's completion
// time: j.enc holds the encoded body.
func (t *Transport) signAndBroadcast(j *cpuJob) {
	if t.stopped {
		return
	}
	sig, err := t.m.auth.Sign(j.enc)
	if err != nil {
		panic(fmt.Sprintf("core: frame signing: %v", err))
	}
	t.stats.SignOps++
	raw := append(j.enc, byte(len(sig)>>8), byte(len(sig)))
	raw = append(raw, sig...)
	j.enc = raw
	t.stats.LogicalSent++
	t.stats.BytesSent += uint64(len(raw))
	st := t.m.station
	chunk := st.Channel().Config().MaxFrame - fragHeaderLen
	total := fragmentCount(len(raw), chunk)
	for i := 0; i < total; i++ {
		t.m.out.fragBuf = appendFragment(t.m.out.fragBuf[:0], raw, uint16(st.ID()), j.seq, i, total, chunk)
		t.stats.FragmentsSent++
		st.Broadcast(t.m.out.fragBuf)
	}
}

// ReceiveFrame implements wireless.Receiver for a standalone transport that
// is itself its station's receiver: Mux.ReceiveFrame.
func (t *Transport) ReceiveFrame(from wireless.NodeID, payload []byte) {
	t.m.ReceiveFrame(from, payload)
}

// receiveLogical verifies and dispatches one reassembled logical packet
// that Mux.ReceiveFrame routed here by its header's session and epoch.
//
// raw is shared and read-only: it is the channel's private copy of the
// transmission (or the reassembler's fresh buffer), handed to every
// receiver alike, and the decoded frame's Nack, Data and Sig alias it.
func (t *Transport) receiveLogical(raw []byte) {
	if t.stopped {
		return
	}
	j := t.job()
	j.send, j.raw = false, raw
	t.m.cpu.Exec(t.m.auth.VerifyCost(), j.run)
}

// dispatch completes receiveLogical at the verification job's completion
// time: decode, verify, hand each section to its kind's handler.
func (t *Transport) dispatch(raw []byte) {
	if t.stopped {
		return
	}
	t.stats.VerifyOps++
	dec := &t.m.dec
	frame, bodyLen, err := dec.Decode(raw)
	if err != nil {
		t.stats.AuthFailures++
		return
	}
	if t.m.auth.Verify(frame.Sender, raw[:bodyLen], frame.Sig) != nil {
		t.stats.AuthFailures++
	} else {
		t.stats.LogicalRecv++
		for _, sec := range frame.Sections {
			// The kind is a byte off the wire: past the table, no handler.
			if int(sec.Kind) < len(t.handlers) && t.handlers[sec.Kind] != nil {
				t.handlers[sec.Kind].HandleSection(frame.Sender, sec)
			}
		}
	}
	// The frame was the handlers' only until they returned: its sections
	// and entries are the decoder's reused storage. A handler may keep an
	// entry's Data (immutable bytes of raw), never sec.Entries; zeroing the
	// storage makes one that does read zeros at once instead of a later
	// frame's votes.
	dec.Release()
}

// wireOrder packs a key so that integer order is the wire ordering:
// sections group by (kind, phase), entries order by (slot, sub, round).
func (k IntentKey) wireOrder() uint64 {
	return uint64(k.Kind)<<40 | uint64(k.Phase)<<32 | uint64(k.Slot)<<24 | uint64(k.Sub)<<16 | uint64(k.Round)
}
