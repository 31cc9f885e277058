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
package core

import (
	"fmt"
	"sort"
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
	SigLen() int
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

// Transport is one node's ConsensusBatcher (or baseline) instance.
type Transport struct {
	sched   *sim.Scheduler
	cpu     *sim.CPU
	station *wireless.Station
	auth    Auth
	cfg     Config

	icept Interceptor

	epoch    uint16
	intents  map[IntentKey]Intent
	order    []IntentKey // live keys, maintained in wire (sortKeys) order
	nacks    map[[2]uint8]packet.BitSet
	dirty    map[IntentKey]bool // baseline: per-key pending sends
	handlers map[packet.Kind]Handler

	// Flush-time scratch, reused across flushes. Safe because sendLogical
	// encodes the frame body before returning (the deferred work in the CPU
	// queue holds only the encoded bytes, never these slices).
	secScratch   []packet.Section
	entScratch   []packet.Entry
	startScratch []int
	keyScratch   []IntentKey

	// flushArmed tracks whether a flush wait (flushWait) is already queued.
	// The wait carries no cancellation handle: after Stop it is no longer
	// blocked and wakes once as a no-op.
	flushArmed bool
	retxEvt    *sim.Event
	// retxFn is t.retransmit bound once: scheduling a method value
	// allocates a fresh closure per call.
	retxFn func()
	// seqSrc allocates fragment sequence numbers. Standalone transports own
	// a private counter; transports opened through a Mux share the mux's, so
	// one node's frames across pipelined epochs form a single seq space.
	seqSrc  *uint32
	stopped bool
	// quiesced switches the periodic snapshot rebroadcast to exponential
	// backoff (retxBoost doubles per firing, capped). See Quiesce.
	quiesced  bool
	retxBoost int

	reasm *reassembler
	stats Stats

	// Logical packets waiting on the CPU ride recycled records, every
	// received one is parsed by the one decoder (its frame lives until the
	// handlers return, see dispatch), and every radio frame is built in
	// the one buffer, which Broadcast copies.
	jobFree []*cpuJob
	dec     packet.Decoder
	fragBuf []byte
}

// New creates a transport bound to a station. Frames received on the
// station must be routed to ReceiveFrame (wire the station's receiver to
// the transport at attach time).
func New(sched *sim.Scheduler, cpu *sim.CPU, station *wireless.Station, auth Auth, cfg Config) *Transport {
	if cfg.FlushDelay <= 0 {
		cfg.FlushDelay = time.Millisecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 3
	}
	t := &Transport{
		sched:    sched,
		cpu:      cpu,
		station:  station,
		auth:     auth,
		cfg:      cfg,
		intents:  make(map[IntentKey]Intent),
		nacks:    make(map[[2]uint8]packet.BitSet),
		dirty:    make(map[IntentKey]bool),
		handlers: make(map[packet.Kind]Handler),
		reasm:    newReassembler(),
		seqSrc:   new(uint32),
	}
	t.retxFn = t.retransmit
	return t
}

// Register installs the handler for a component kind. Re-registration
// replaces the previous handler (used at epoch changeover).
func (t *Transport) Register(kind packet.Kind, h Handler) { t.handlers[kind] = h }

// BindStation attaches the radio. Construction is two-phase because the
// station's receiver is the transport itself: create the transport with a
// nil station, attach it to the channel, then bind the returned station.
func (t *Transport) BindStation(st *wireless.Station) { t.station = st }

// SetInterceptor installs (or, with nil, clears) the outbound-intent
// interceptor. Honest nodes run without one; the deployment layer installs
// one to make a node Byzantine.
func (t *Transport) SetInterceptor(ic Interceptor) { t.icept = ic }

// NoteRejected counts one component-level discard of invalid inbound
// state (see Stats.Rejected). Components call it through their Env when a
// share, certificate, proof, or proposal fails verification.
func (t *Transport) NoteRejected() { t.stats.Rejected++ }

// Stats returns a snapshot of the counters.
func (t *Transport) Stats() Stats { return t.stats }

// Epoch returns the current epoch.
func (t *Transport) Epoch() uint16 { return t.epoch }

// SetEpoch advances to a new epoch, discarding all outbound state.
// In-flight frames from other epochs are dropped on receipt.
func (t *Transport) SetEpoch(e uint16) {
	t.epoch = e
	t.intents = make(map[IntentKey]Intent)
	t.order = t.order[:0]
	t.nacks = make(map[[2]uint8]packet.BitSet)
	t.dirty = make(map[IntentKey]bool)
}

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
	if t.icept == nil {
		t.apply(in)
		return
	}
	for _, out := range t.icept.Outbound(t, in) {
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

func (t *Transport) apply(in Intent) {
	if _, ok := t.intents[in.IntentKey]; !ok {
		// Keep order sorted on insert so flushes walk it directly instead
		// of copying and re-sorting the whole key set every window.
		i := sort.Search(len(t.order), func(i int) bool { return keyLess(in.IntentKey, t.order[i]) })
		t.order = append(t.order, IntentKey{})
		copy(t.order[i+1:], t.order[i:])
		t.order[i] = in.IntentKey
	}
	t.intents[in.IntentKey] = in
	t.dirty[in.IntentKey] = true
	t.Flush()
	t.ensureRetx()
}

// Remove deletes an intent (the component completed that piece of state).
func (t *Transport) Remove(k IntentKey) {
	if _, ok := t.intents[k]; !ok {
		return
	}
	delete(t.intents, k)
	delete(t.dirty, k)
	for i, ok := range t.order {
		if ok == k {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// RemoveKind drops all intents of a kind (component teardown).
func (t *Transport) RemoveKind(kind packet.Kind) {
	t.RemoveWhere(func(k IntentKey) bool { return k.Kind == kind })
}

// RemoveWhere deletes every intent whose key matches the predicate (used
// by the ABAs to prune state for stale rounds and halted instances).
func (t *Transport) RemoveWhere(pred func(IntentKey) bool) {
	kept := t.order[:0]
	for _, k := range t.order {
		if pred(k) {
			delete(t.intents, k)
			delete(t.dirty, k)
			continue
		}
		kept = append(kept, k)
	}
	t.order = kept
}

// SetNack installs the compressed O(N) NACK bitmap attached to every
// outbound section of (kind, phase).
func (t *Transport) SetNack(kind packet.Kind, phase packet.Phase, bits packet.BitSet) {
	t.nacks[[2]uint8{uint8(kind), uint8(phase)}] = bits.Clone()
}

// Flush schedules frame assembly after the aggregation window. Multiple
// calls within the window coalesce — this is where channel-contention
// pressure turns into batching opportunity.
func (t *Transport) Flush() {
	if t.stopped || t.flushArmed {
		return
	}
	t.flushArmed = true
	t.sched.WaitFixed(t.cfg.FlushDelay, (*flushWait)(t))
}

func (t *Transport) ensureRetx() {
	if t.stopped || t.cfg.RetxInterval <= 0 || (t.retxEvt != nil && !t.retxEvt.Cancelled()) {
		return
	}
	base := t.cfg.RetxInterval
	if t.quiesced {
		base *= time.Duration(t.retxBoost)
	}
	jitter := time.Duration(float64(base) * (0.75 + 0.5*t.sched.Rand().Float64()))
	t.retxEvt = t.sched.After(jitter, t.retxFn)
}

// retransmit is the retransmission timer's callback.
func (t *Transport) retransmit() {
	t.retxEvt = nil
	if t.stopped || len(t.intents) == 0 {
		return
	}
	if t.quiesced && t.retxBoost < 16 {
		t.retxBoost *= 2
	}
	// Re-send the full current snapshot: NACK-driven repair.
	for _, k := range t.order {
		t.dirty[k] = true
	}
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
	return !w.stopped && len(w.intents) > 0 && w.station.QueueLen() >= w.cfg.MaxQueue
}

// Wake implements sim.Waiter: assemble and send.
func (w *flushWait) Wake() {
	t := (*Transport)(w)
	t.flushArmed = false
	if t.stopped || len(t.intents) == 0 {
		return
	}
	if t.cfg.Batched {
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
	if len(t.dirty) == 0 {
		return
	}
	secs := t.secScratch[:0]
	ents := t.entScratch[:0]
	starts := t.startScratch[:0]
	for _, k := range t.order {
		in := t.intents[k]
		if n := len(secs); n == 0 || secs[n-1].Kind != k.Kind || secs[n-1].Phase != k.Phase {
			secs = append(secs, packet.Section{
				Kind:  k.Kind,
				Phase: k.Phase,
				Nack:  t.nacks[[2]uint8{uint8(k.Kind), uint8(k.Phase)}],
			})
			starts = append(starts, len(ents))
		}
		ents = append(ents, packet.Entry{
			Slot: k.Slot, Sub: k.Sub, Round: k.Round, Flags: in.Flags, Data: in.Data,
		})
	}
	for i := range secs {
		end := len(ents)
		if i+1 < len(secs) {
			end = starts[i+1]
		}
		secs[i].Entries = ents[starts[i]:end]
	}
	t.secScratch, t.entScratch, t.startScratch = secs, ents, starts
	clear(t.dirty)
	t.sendLogical(secs)
}

// flushBaseline emits one logical frame per dirty intent — the unbatched
// deployment where every instance-phase event competes for the channel
// separately.
func (t *Transport) flushBaseline() {
	keys := t.keyScratch[:0]
	for k := range t.dirty {
		if _, live := t.intents[k]; live {
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	t.keyScratch = keys
	clear(t.dirty)
	for _, k := range keys {
		in := t.intents[k]
		secs := t.secScratch[:0]
		ents := t.entScratch[:0]
		ents = append(ents, packet.Entry{
			Slot: k.Slot, Sub: k.Sub, Round: k.Round, Flags: in.Flags, Data: in.Data,
		})
		secs = append(secs, packet.Section{
			Kind:    k.Kind,
			Phase:   k.Phase,
			Nack:    t.nacks[[2]uint8{uint8(k.Kind), uint8(k.Phase)}],
			Entries: ents,
		})
		t.secScratch, t.entScratch = secs, ents
		t.sendLogical(secs)
	}
}

// sendLogical signs and fragments one logical packet. Signing is charged
// to the node's CPU before the frame reaches the radio. The body is
// encoded into a pooled buffer before this returns — required so the
// caller's section/entry scratch can be reused — and the buffer is
// recycled once the fragments (which copy out of it) are on the air.
// Intent data and NACK bitmaps are snapshots that are never mutated in
// place, so encoding now and signing at the virtual completion time
// produce the same bytes the deferred encoding did.
func (t *Transport) sendLogical(sections []packet.Section) {
	frame := packet.Frame{
		Sender:   uint16(t.station.ID()),
		Session:  t.cfg.Session,
		Epoch:    t.epoch,
		Sections: sections,
	}
	body, err := frame.AppendBody(packet.GetBuf())
	if err != nil {
		panic(fmt.Sprintf("core: frame encoding: %v", err))
	}
	seq := *t.seqSrc
	*t.seqSrc++
	t.exec(t.auth.SignCost(), true, body, seq)
}

// cpuJob is one logical packet waiting on the node's CPU: for its signing
// time on the way out, for its verification time on the way in. Records
// are recycled through Transport.jobFree, so neither direction allocates a
// closure per packet.
type cpuJob struct {
	t    *Transport
	send bool
	buf  []byte // out: pooled buffer holding the encoded body; in: the packet
	seq  uint32 // out: fragment sequence number
	run  func() // j.exec, bound once
}

// exec charges cost to the CPU, then signs and broadcasts buf (send) or
// verifies and dispatches it.
func (t *Transport) exec(cost time.Duration, send bool, buf []byte, seq uint32) {
	var j *cpuJob
	if n := len(t.jobFree); n > 0 {
		j, t.jobFree = t.jobFree[n-1], t.jobFree[:n-1]
	} else {
		j = &cpuJob{t: t}
		j.run = j.exec
	}
	j.send, j.buf, j.seq = send, buf, seq
	t.cpu.Exec(cost, j.run)
}

func (j *cpuJob) exec() {
	t, send, buf, seq := j.t, j.send, j.buf, j.seq
	j.buf = nil
	t.jobFree = append(t.jobFree, j)
	if send {
		t.signAndBroadcast(buf, seq)
	} else {
		t.dispatch(buf)
	}
}

// signAndBroadcast completes sendLogical at the signing job's completion
// time: raw is the pooled buffer holding the encoded body.
func (t *Transport) signAndBroadcast(raw []byte, seq uint32) {
	if !t.stopped {
		sig, err := t.auth.Sign(raw)
		if err != nil {
			panic(fmt.Sprintf("core: frame signing: %v", err))
		}
		t.stats.SignOps++
		raw = append(raw, byte(len(sig)>>8), byte(len(sig)))
		raw = append(raw, sig...)
		t.stats.LogicalSent++
		t.stats.BytesSent += uint64(len(raw))
		sender := uint16(t.station.ID())
		chunk := t.station.Channel().Config().MaxFrame - fragHeaderLen
		total := fragmentCount(len(raw), chunk)
		for i := 0; i < total; i++ {
			t.fragBuf = appendFragment(t.fragBuf[:0], raw, sender, seq, i, total, chunk)
			t.stats.FragmentsSent++
			t.station.Broadcast(t.fragBuf)
		}
	}
	packet.PutBuf(raw)
}

// ReceiveFrame implements wireless.Receiver: reassemble, verify, dispatch.
func (t *Transport) ReceiveFrame(from wireless.NodeID, payload []byte) {
	if t.stopped {
		return
	}
	raw, ok := t.reasm.feed(payload)
	if !ok {
		return
	}
	t.receiveLogical(raw)
}

// receiveLogical verifies and dispatches one reassembled logical packet.
// The Mux calls this directly after its shared reassembly step.
//
// raw is shared and read-only: it is the channel's private copy of the
// transmission (or the reassembler's fresh buffer), handed to every
// receiver alike, and the decoded frame's Nack, Data and Sig alias it.
func (t *Transport) receiveLogical(raw []byte) {
	if t.stopped {
		return
	}
	t.exec(t.auth.VerifyCost(), false, raw, 0)
}

// dispatch completes receiveLogical at the verification job's completion
// time: decode, verify, hand each section to its kind's handler.
func (t *Transport) dispatch(raw []byte) {
	if t.stopped {
		return
	}
	t.stats.VerifyOps++
	frame, bodyLen, err := t.dec.Decode(raw)
	if err != nil {
		t.stats.AuthFailures++
		return
	}
	switch {
	case t.auth.Verify(frame.Sender, raw[:bodyLen], frame.Sig) != nil:
		t.stats.AuthFailures++
	case frame.Session != t.cfg.Session || frame.Epoch != t.epoch:
		t.stats.DroppedEpoch++
	default:
		t.stats.LogicalRecv++
		for _, sec := range frame.Sections {
			if h, ok := t.handlers[sec.Kind]; ok {
				h.HandleSection(frame.Sender, sec)
			}
		}
	}
	// The frame was the handlers' only until they returned: its sections
	// and entries are the decoder's reused storage. A handler may keep an
	// entry's Data (immutable bytes of raw), never sec.Entries; zeroing the
	// storage makes one that does read zeros at once instead of a later
	// frame's votes.
	t.dec.Release()
}

// keyLess is the wire ordering of intent keys: sections group by
// (kind, phase), entries order by (slot, sub, round).
func keyLess(a, b IntentKey) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Slot != b.Slot {
		return a.Slot < b.Slot
	}
	if a.Sub != b.Sub {
		return a.Sub < b.Sub
	}
	return a.Round < b.Round
}

func sortKeys(keys []IntentKey) {
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
}
