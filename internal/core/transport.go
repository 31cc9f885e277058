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
// Frames are bound at channel access: the node's Mux is its station's
// wireless.Source, and a frame is assembled, encoded and signed when the
// station wins the medium, so it carries whatever is pending at that
// instant. An idle node's first contention waits out a short aggregation
// window; after that, state that changes while the node contends rides the
// frame that wins. The signature's CPU time is charged at the win, and the
// station holds the medium until it is spent. Frames larger than the radio
// MTU are fragmented, and a logical packet is one channel access: its
// fragments follow one another in a burst (wireless.Station.Follow).
// Batched, so do the packets of every epoch the node builds at one win,
// each with its own signature, header and fragment sequence.
// Receivers reassemble them; a newer frame from the same sender supersedes
// any partial older one.
//
// Reliability is NACK-based (Sec. IV-B1) and demand-driven: a frame carries
// the intents that changed or came due, plus every per-phase O(N) NACK
// bitmap the epoch has set. An intent nobody asks for is re-sent on a
// geometrically backed-off schedule, and only once every live peer has had
// the medium since it last went out; a peer whose bitmap shows a slot
// undone puts that slot's intents back on the base period, unpaced. The
// transport is the one place the peers' bitmaps are kept: what every peer
// has confirmed it parks — keeps, but never sends — until a bitmap shows
// the slot undone again. A component keeps what any holder may serve off
// the air from the start (Hold) and parks what it has left behind
// (ParkWhere) the same way: a bitmap asks for such an intent, and in a
// phase with no bitmap a peer whose bitmap lost a bit it had shown — it
// lost its state; a REPAIR bitmap loses one whenever its node wants a
// value, and does not count — asks for it by sending its own entry of the
// same key.
// Either way the answer goes out at most once per base period, and an
// answer to an entry parks the intent again.
//
// A node has one Mux, which owns everything node-scoped, and one Transport
// per open epoch, which owns that epoch's state (mux.go); components talk
// to their epoch's Transport.
package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
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

// Config tunes a transport.
type Config struct {
	Session      uint32
	Batched      bool          // ConsensusBatcher vs baseline per-instance packets
	RetxInterval time.Duration // base retransmission period (0 disables)
}

// flushDelay is the aggregation window before an idle node contends,
// short against a LoRa-class airtime.
const flushDelay = 120 * time.Millisecond

// DefaultConfig returns transport parameters calibrated for the LoRa-class
// channel: a retransmission period a few airtimes long.
func DefaultConfig(batched bool) Config {
	return Config{
		Batched:      batched,
		RetxInterval: 4 * time.Second,
	}
}

// Stats counts one node's transport-level work across its epochs: every
// Transport counts into its Mux's.
type Stats struct {
	LogicalSent   uint64 // signed logical packets
	FragmentsSent uint64 // radio frames queued on the station
	LogicalRecv   uint64
	AuthFailures  uint64
	DroppedEpoch  uint64 // frames for an epoch with no open transport
	SignOps       uint64
	VerifyOps     uint64
	// Rejected counts component-level discards of invalid inbound state:
	// threshold shares, certificates, and proofs that fail verification,
	// undecodable payloads, and equivocating proposals caught against a
	// quorum. Under an active-Byzantine scenario this is the measure of how
	// much adversarial traffic the defenses absorbed.
	Rejected uint64
	// Entries is the entry-byte ledger, kept beside the counters by the
	// Mux: a copy in Mux.Stats, nil in Transport.Stats.
	Entries *EntryBytes
}

// EntryBytes is the entry-byte ledger: the bytes entries added to logical
// packets, by kind, phase and send class.
type EntryBytes [packet.KindLimit][packet.PhaseLimit][sendClasses]uint64

// The ledger's send classes: an intent's first send, a re-send a peer's
// NACK row asked for since the last one, and every other re-send.
const (
	SendFirst = iota
	SendAsked
	SendTimer
	sendClasses
)

// Transport is one epoch of a node's ConsensusBatcher (or baseline)
// instance: the epoch's intent store, NACK rows, handlers and timers.
// Everything node-scoped — scheduler, CPU, radio, keys, the send and
// receive state, the counters — is its Mux's, once. The storage of the
// store and the rows outlives the epoch: Mux.Close empties it and hands it
// to the next epoch Mux.Open makes, so a node's epochs grow it once.
type Transport struct {
	m     *Mux
	epoch uint16
	// live is the intent store: every current intent, in wire (wireOrder)
	// order, so a build is a walk and an update a binary search. nDirty of
	// them are dirty: updated, asked for or due since last sent.
	live   []liveIntent
	nDirty int
	// rows are the (kind, phase) NACK rows, this node's and the peers', in
	// wire order; rowsChanged says one of this node's changed since the
	// last frame went out.
	rows        []nackRow
	rowsChanged bool
	// regressed marks, by sender, the peers one of whose rows lost a bit it
	// had shown (nil: none has), a REPAIR row aside: their entries ask for
	// what this node has parked (request).
	regressed packet.BitSet
	// newest is, by transmitting station, one past the highest fragment
	// seq of a logical packet of this epoch completed from it: a packet
	// below it is stale, older than one of the epoch already heard
	// (dispatch).
	newest []uint32
	// was is the scratch copy of the row a peer's newer one replaces.
	was      packet.BitSet
	handlers [packet.KindLimit]Handler

	// retxEvt is the one retransmission timer, armed for the earliest due
	// re-send (retxArmed: queued and not yet fired); retxFn is t.retransmit
	// bound once, because taking a method value allocates a closure each
	// time. paced says a due re-send waits for a peer's turn.
	retxEvt   *sim.Event
	retxArmed bool
	retxFn    func()
	paced     bool
	stopped   bool
}

// The retransmission policy: an intent that went out is re-sent
// RetxInterval << age after its last send (times one jitter factor drawn
// per frame), where age counts the re-sends nobody asked for since the last
// Update, capped at maxAge. A peer's NACK row showing the intent's slot
// undone is the ask: the intent is due again one base period after its
// last send at the latest, and the re-send does not age it. An intent of a
// (kind, phase) that has NACK rows is settled once every peer whose row
// has reached this node shows its slot done: it is then re-sent only when
// asked — a peer that was silent until now (a crashed one coming back, one
// that opens the epoch late) asks with its first frame. The row that
// settles a slot parks its intents at once, even dirty ones, so a peer
// that withdraws and re-grants a confirmation with every frame gets the
// intent at most once per base period. An unasked re-send
// also waits its turn: it goes out only once every live station (one heard
// within Mux.liveWindow) has been heard again since the intent was
// last sent, so the node whose last transmission is oldest goes first and
// a re-send never takes the medium from a peer that has not yet answered
// the last one; a peer silent for the whole window stops pacing. The timer
// takes along every intent due within RetxInterval/retxSlack of the
// earliest, so one frame carries them.
const (
	maxAge    = 4 // 2^4 = 16x RetxInterval at the slowest
	retxSlack = 4
	// maxSender bounds the sender ids whose rows are kept: node ids travel
	// in one byte wherever a component names one.
	maxSender = 256
)

// nackRow is one (kind, phase)'s NACK bitmaps: the one this node publishes
// (nil until a component sets it) and the latest each peer sent.
type nackRow struct {
	kind  packet.Kind
	phase packet.Phase
	bits  packet.BitSet
	// peers is by sender; an empty bitmap (nil, or one a closed epoch
	// left for reuse): none heard from it. A kept row is never empty.
	peers []packet.BitSet
}

// sendState is what one node's epochs share on the way to the radio: the
// fragment sequence space (one node's frames across its epochs form a
// single one, so receivers keep one reassembly buffer per peer) and the
// storage packets are built in, so a new epoch's transport starts warm —
// as it does with the intent store and NACK rows a closed epoch left
// (Mux.Close).
type sendState struct {
	seq uint32
	// Section and entry scratch, reused across builds. nextRow is the
	// first NACK row the frame being built has not placed.
	secScratch   []packet.Section
	entScratch   []packet.Entry
	startScratch []int
	nextRow      int
	enc          []byte // every logical packet is encoded and signed here
	fragBuf      []byte // every radio frame is cut here; Station.Queue copies it
}

// New creates a standalone transport: the single open epoch, 0, of a mux
// of its own. Frames received on the station must be routed to
// ReceiveFrame (wire the station's receiver to the transport at attach
// time). The station may be nil and bound later (BindStation); state
// updated before then goes out once it is.
func New(sched *sim.Scheduler, cpu *sim.CPU, station *wireless.Station, auth *SizedAuth, cfg Config) *Transport {
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
// state (see Stats.Rejected) in its node's counters. Components call it
// through their Env when a share, certificate, proof, or proposal fails
// verification.
func (t *Transport) NoteRejected() { t.m.stats.Rejected++ }

// Stats returns a snapshot of its node's counters (Mux.Stats) without the
// entry-byte ledger.
func (t *Transport) Stats() Stats { return t.m.stats }

// Batched reports whether the epoch runs on ConsensusBatcher rather than
// the per-instance baseline: the mode an engine's wireless rules follow,
// such as one shared coin per round across parallel ABAs (Sec. V-A).
func (t *Transport) Batched() bool { return t.m.cfg.Batched }

// pending reports whether the epoch has something to send at its node's
// next win.
func (t *Transport) pending() bool { return !t.stopped && (t.nDirty > 0 || t.rowsChanged) }

// Stop cancels pending timers; the transport sends nothing further.
func (t *Transport) Stop() {
	t.stopped = true
	t.retxEvt.Cancel()
}

// Update upserts an intent and flushes; the intent's retransmission age
// starts over. With an interceptor installed, the intent first passes
// through it and whatever comes back — possibly nothing — is applied
// instead.
//
// The transport keeps an intent's Data, unread until a frame carries it,
// until the key's next Update: a component may rewrite those bytes in
// place if it updates the key after each write (BrachaABA publishes its
// views from its phase records). An interceptor may drop or hold an
// update, so with one installed every path through it (Update, Revise,
// Hold) hands it a copy, and a withheld update leaves the transport the
// bytes it was handed last.
func (t *Transport) Update(in Intent) {
	if t.m.icept == nil {
		t.apply(in)
		return
	}
	for _, out := range t.outbound(in) {
		t.apply(out)
	}
}

// outbound passes in through the interceptor with a copy of its Data.
func (t *Transport) outbound(in Intent) []Intent {
	in.Data = bytes.Clone(in.Data)
	return t.m.icept.Outbound(t, in)
}

// Revise replaces the flags and data of a live intent and leaves its send
// schedule alone: it is no more dirty, due or young than it was, so the
// new data goes out whenever the old would have. A key that is not in the
// store — never published, or removed by its component — stays out. With
// an interceptor installed, the intent passes through it as in Update, and
// whatever comes back is revised in the same way.
func (t *Transport) Revise(in Intent) {
	if _, found := t.find(in.IntentKey); !found {
		return
	}
	if t.m.icept == nil {
		t.revise(in)
		return
	}
	for _, out := range t.outbound(in) {
		t.revise(out)
	}
}

func (t *Transport) revise(in Intent) {
	if i, found := t.find(in.IntentKey); found {
		t.live[i].Intent = in
	}
}

// Refresh is Update for a live intent only: the new flags and data go out
// afresh, as after Update, and a key that is not in the store — never
// published, or removed by its component — stays out, as in Revise.
func (t *Transport) Refresh(in Intent) {
	if _, found := t.find(in.IntentKey); found {
		t.Update(in)
	}
}

// Hold upserts an intent kept off the air: it starts clean and never due,
// like one park has settled, and goes out only once a peer's NACK row shows
// its slot undone (demand). A key already in the store is left as it is.
// With an interceptor installed, the intent passes through it as in Update.
func (t *Transport) Hold(in Intent) {
	if _, found := t.find(in.IntentKey); found {
		return
	}
	if t.m.icept == nil {
		t.hold(in)
		return
	}
	for _, out := range t.outbound(in) {
		t.hold(out)
	}
}

func (t *Transport) hold(in Intent) {
	if i, found := t.find(in.IntentKey); !found {
		t.live = slices.Insert(t.live, i, liveIntent{Intent: in, due: never})
	}
}

// Inject upserts an intent bypassing the interceptor. Interceptors use it
// to plant delayed conflicting state (equivocation) without re-entering
// themselves. An intent kept off the air — held, or parked — takes the new
// data and stays off until a peer asks for it.
func (t *Transport) Inject(in Intent) {
	if t.stopped {
		return
	}
	if i, found := t.find(in.IntentKey); found && !t.live[i].dirty && t.live[i].due == never {
		t.live[i].Intent = in
		return
	}
	t.apply(in)
}

// liveIntent is one entry of the intent store.
type liveIntent struct {
	Intent
	dirty bool
	// asked says a peer's NACK row showed the slot undone since the intent
	// was last sent; age is the retransmission policy's k.
	asked bool
	age   uint8
	// sentAt is when the intent last went out, due when it is re-sent
	// unless something sends it sooner.
	sentAt, due time.Duration
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
	e.Intent, e.age = in, 0
	t.markDirty(e)
	t.flush()
}

// markDirty queues an intent for the next frame.
func (t *Transport) markDirty(e *liveIntent) {
	if !e.dirty {
		e.dirty = true
		t.nDirty++
	}
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
// by the DECIDED gadget to drop the state of halted instances).
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

// ParkWhere takes every intent whose key matches the predicate off the air
// (used by the ABAs to prune the rounds they have left behind): each stays
// in the store, clean and never due, as park leaves a settled one, and goes
// out again only when a peer asks for it — by a NACK row that shows its
// slot undone, or, a peer that lost state, by an entry of the same key
// (request).
func (t *Transport) ParkWhere(pred func(IntentKey) bool) {
	for i := range t.live {
		if e := &t.live[i]; pred(e.IntentKey) {
			t.parkIntent(e)
		}
	}
}

// parkIntent takes e off the air until a peer asks for it.
func (t *Transport) parkIntent(e *liveIntent) {
	if e.dirty {
		e.dirty = false
		t.nDirty--
	}
	e.asked, e.due = false, never
}

// SetNack installs the compressed O(N) NACK bitmap of (kind, phase): every
// frame carries it from then on, in the section of (kind, phase) or in an
// entry-less one, so a node that has no intent of the phase left still
// tells its peers what it has done. A row whose bits changed goes out in a
// frame of its own if nothing else is about to be sent; installing a row
// with no bit set changes nothing a peer could see.
func (t *Transport) SetNack(kind packet.Kind, phase packet.Phase, bits packet.BitSet) {
	r := t.row(kind, phase)
	changed := !bytes.Equal(r.bits, bits) && (len(r.bits) > 0 || bits.Count() > 0)
	r.bits = bits.Clone()
	if changed {
		t.rowsChanged = true
		t.flush()
	}
}

// findRow returns where the (kind, phase) row is, or would be inserted.
func (t *Transport) findRow(kind packet.Kind, phase packet.Phase) (i int, found bool) {
	return slices.BinarySearchFunc(t.rows, rowOrder(kind, phase), func(r nackRow, k uint16) int {
		return cmp.Compare(rowOrder(r.kind, r.phase), k)
	})
}

// row returns the (kind, phase) row, making an empty one if there is none.
func (t *Transport) row(kind packet.Kind, phase packet.Phase) *nackRow {
	i, found := t.findRow(kind, phase)
	if !found {
		// The rows of an epoch closed before left their tables of the
		// peers' bitmaps, emptied, past the end (Mux.Close): the new row
		// takes the one Insert is about to overwrite.
		var peers []packet.BitSet
		if n := len(t.rows); n < cap(t.rows) {
			peers = t.rows[:n+1][n].peers
		}
		t.rows = slices.Insert(t.rows, i, nackRow{kind: kind, phase: phase, peers: peers})
	}
	return &t.rows[i]
}

// rowOrder packs a (kind, phase) so that integer order is wire order.
func rowOrder(kind packet.Kind, phase packet.Phase) uint16 {
	return uint16(kind)<<8 | uint16(phase)
}

// flush says the epoch has something to send: the node contends for the
// medium (Mux.flush), and whatever is dirty when its station wins goes
// out. Calls before then coalesce — this is where channel-contention
// pressure turns into batching opportunity.
func (t *Transport) flush() {
	if !t.stopped {
		t.m.flush()
	}
}

// never is a due time no intent reaches.
const never = time.Duration(math.MaxInt64)

// armRetx makes the retransmission timer fire no later than at. A node
// that is down arms nothing: Mux.Recover looks at every intent again.
func (t *Transport) armRetx(at time.Duration) {
	if t.stopped || t.m.down || t.m.cfg.RetxInterval <= 0 || at == never {
		return
	}
	if t.retxArmed && t.retxEvt.At() <= at {
		return
	}
	t.disarm()
	t.retxArmed = true
	t.m.sched.Arm(t.retxEvt, at-t.m.sched.Now(), t.retxFn)
}

// disarm cancels the retransmission timer; the handle is re-armed as it
// is (sim.Scheduler.Arm).
func (t *Transport) disarm() {
	if t.retxArmed {
		t.retxEvt.Cancel()
		t.retxArmed = false
	}
}

// After runs fn d from now as a timer of its node's (Mux.Due): one that
// comes due while the node is down runs when it recovers, not before.
func (t *Transport) After(d time.Duration, fn func()) {
	t.m.sched.PostAfter(d, func() { t.m.Due(fn) })
}

// retransmit is the retransmission timer's callback: every intent due by
// now (or within the slack) goes into the next frame, one age older unless
// a peer asked for it — or, settled, waits to be asked, or, unasked, waits
// for every live peer's turn — and the timer is re-armed for the earliest
// of the rest, or for when the peer whose turn is awaited leaves the live
// window. A frame heard from any station has a waiting epoch look again
// (Mux.noteTurn).
func (t *Transport) retransmit() {
	t.retxArmed = false
	t.resend()
}

// resend is retransmit's work, which Mux.noteTurn also runs when the turn a
// paced re-send waits for comes.
func (t *Transport) resend() {
	if t.stopped {
		return
	}
	now := t.m.sched.Now()
	horizon, oldest := now+t.m.cfg.RetxInterval/retxSlack, t.m.oldestTurn(now)
	next, marked, paced := never, false, false
	for i := range t.live {
		e := &t.live[i]
		switch {
		case e.dirty:
		case e.due <= horizon:
			if !e.asked {
				if t.settled(e) {
					e.due = never
					continue
				}
				if oldest <= e.sentAt {
					paced = true
					continue
				}
				if e.age < maxAge {
					e.age++
				}
			}
			t.markDirty(e)
			marked = true
		case e.due < next:
			next = e.due
		}
	}
	if marked {
		t.flush()
	}
	if paced {
		t.paced, t.m.paced, t.m.awaited = true, true, oldest
		next = min(next, oldest+t.m.liveWindow())
	}
	t.armRetx(next)
}

// heardFrom keeps peer from's NACK row for (kind, phase), unless the packet
// is stale, parks this node's intents of every slot the row newly shows
// done that every peer heard now shows done, and takes the row as a
// request for this node's intents of every slot it shows undone.
func (t *Transport) heardFrom(from uint16, sec *packet.Section, stale bool) {
	if len(sec.Nack) == 0 || from >= maxSender {
		return
	}
	if !stale && t.keepRow(from, sec) && t.m.cfg.RetxInterval > 0 {
		t.park(sec, t.was)
	}
	if t.m.cfg.RetxInterval > 0 {
		t.demand(sec)
	}
}

// keepRow replaces peer from's kept row for (kind, phase) with the one in
// sec and marks the peer regressed if the new row lost a bit the kept one
// had set — unless it is a REPAIR row, which clears a slot's bit whenever
// its node comes to want that slot's value, a live node's ask and no sign
// of lost state. It reports whether the row gained a bit, keeping the one
// it replaced in t.was.
func (t *Transport) keepRow(from uint16, sec *packet.Section) (gained bool) {
	r := t.row(sec.Kind, sec.Phase)
	for int(from) >= len(r.peers) {
		r.peers = append(r.peers, nil)
	}
	prev := r.peers[from]
	if sec.Phase != packet.PhaseRepair && lostBit(prev, sec.Nack) {
		if t.regressed == nil {
			t.regressed = packet.NewBitSet(maxSender)
		}
		t.regressed.Set(int(from))
	}
	// Rows rarely change between frames: the row is kept aside only when it
	// gains a bit, in the one scratch row, so park can tell what is new.
	gained = lostBit(sec.Nack, prev)
	if gained {
		t.was = append(t.was[:0], prev...)
	}
	r.peers[from] = append(prev[:0], sec.Nack...)
	return gained
}

// park takes off the air every intent of a slot that the row in sec shows
// done, and the one it replaced (was) did not, once the slot is settled:
// the intent stays in the store, clean and never due, and only a row that
// shows its slot undone brings it back (demand).
func (t *Transport) park(sec *packet.Section, was packet.BitSet) {
	i, _ := t.find(IntentKey{Kind: sec.Kind, Phase: sec.Phase})
	for ; i < len(t.live); i++ {
		e := &t.live[i]
		if e.Kind != sec.Kind || e.Phase != sec.Phase {
			break
		}
		if slot := int(e.Slot); !was.Get(slot) && sec.Nack.Get(slot) && t.settled(e) {
			t.parkIntent(e)
		}
	}
}

// lostBit reports whether row next lacks a bit that row prev has.
func lostBit(prev, next packet.BitSet) bool {
	for i, b := range prev {
		var n byte
		if i < len(next) {
			n = next[i]
		}
		if b&^n != 0 {
			return true
		}
	}
	return false
}

// settled reports whether every peer whose NACK row for e's (kind, phase)
// has reached this node shows e's slot done, and at least one has.
func (t *Transport) settled(e *liveIntent) bool {
	i, found := t.findRow(e.Kind, e.Phase)
	if !found {
		return false
	}
	heard := false
	for _, row := range t.rows[i].peers {
		if len(row) > 0 {
			if !row.Get(int(e.Slot)) {
				return false
			}
			heard = true
		}
	}
	return heard
}

// demand applies a peer's NACK row as a request for this node's intents of
// every slot it shows undone (ask).
func (t *Transport) demand(sec *packet.Section) {
	now, next, flush := t.m.sched.Now(), never, false
	i, _ := t.find(IntentKey{Kind: sec.Kind, Phase: sec.Phase})
	for ; i < len(t.live); i++ {
		e := &t.live[i]
		if e.Kind != sec.Kind || e.Phase != sec.Phase {
			break
		}
		if !e.dirty && !sec.Nack.Get(int(e.Slot)) {
			flush = t.ask(e, now, &next) || flush
		}
	}
	t.answer(flush, next)
}

// request applies the entries of a peer that lost state (regressed) as
// requests for what this node has parked (ask), in a phase that has no
// NACK row here, this node's or a peer's — where one exists, a row is the
// request (demand), and an entry is only what a row asked for, such as the
// REPAIR fragments a peer serves. Each entry asks for this node's parked
// intents of its kind, phase, slot and round, whichever node the key's Sub
// names: the entry is the peer's own contribution, the parked intent this
// node's. So a peer reborn into rounds its peers have pruned gets their
// votes, coin shares and certificates of each round back as it reaches the
// round, once each, at most once per base period.
func (t *Transport) request(sec *packet.Section) {
	if !t.rowless(sec.Kind, sec.Phase) {
		return
	}
	now, next, flush := t.m.sched.Now(), never, false
	for _, en := range sec.Entries {
		i, _ := t.find(IntentKey{Kind: sec.Kind, Phase: sec.Phase, Slot: en.Slot})
		for ; i < len(t.live); i++ {
			e := &t.live[i]
			if e.Kind != sec.Kind || e.Phase != sec.Phase || e.Slot != en.Slot {
				break
			}
			if e.Round == en.Round && !e.dirty && e.due == never {
				flush = t.ask(e, now, &next) || flush
			}
		}
	}
	t.answer(flush, next)
}

// rowless reports whether (kind, phase) has no NACK row here, this node's
// or a peer's.
func (t *Transport) rowless(kind packet.Kind, phase packet.Phase) bool {
	_, found := t.findRow(kind, phase)
	return !found
}

// ask applies a peer's request for e: e is due one base period after its
// last send at the latest, and goes out at once if that has passed — or if
// it was already due and waiting for a turn, which an asked re-send does
// not. ask reports whether e goes into the next frame, and otherwise lowers
// next to when it is due.
func (t *Transport) ask(e *liveIntent, now time.Duration, next *time.Duration) bool {
	e.asked = true
	if at := e.sentAt + t.m.cfg.RetxInterval; e.due > at {
		e.age, e.due = 0, at
	}
	if e.due <= now {
		t.markDirty(e)
		return true
	}
	*next = min(*next, e.due)
	return false
}

// answer sends what requests queued and arms the timer for the rest.
func (t *Transport) answer(flush bool, next time.Duration) {
	if flush {
		t.flush()
	}
	t.armRetx(next)
}

// build assembles the epoch's frames at its station's win, each with the
// NACK rows. Batched, one logical frame carries every dirty intent: each
// (kind, phase) becomes a section (vertical batching), and all sections
// ride in the same frame (horizontal batching). Baseline, every dirty
// intent gets a frame of its own — the unbatched deployment where every
// instance-phase event competes for the channel separately — or the rows
// get one frame alone when only they changed; the frames are signed one
// after another and each goes out at an access of its own. The store is
// in wire order, so its dirty entries are sent in wire order as they are
// met. follows says an earlier epoch's packet was built at the same win
// (batched only): this epoch's packet continues that burst.
func (t *Transport) build(follows bool) {
	now, jitter := t.m.sched.Now(), t.jitter()
	next, perIntent := never, !t.m.cfg.Batched
	t.beginFrame()
	for i := range t.live {
		if e := &t.live[i]; e.dirty {
			t.addEntry(e)
			next = min(next, t.sent(e, now, jitter))
			if perIntent {
				t.sendLogical(t.endFrame(), false)
				t.beginFrame()
			}
		}
	}
	if !perIntent || t.nDirty == 0 {
		t.sendLogical(t.endFrame(), follows)
	}
	t.nDirty, t.rowsChanged = 0, false
	t.armRetx(next)
}

// jitter draws the factor one frame's re-send periods are stretched by, so
// that nodes which sent together do not re-send together.
func (t *Transport) jitter() float64 {
	if t.m.cfg.RetxInterval <= 0 {
		return 0
	}
	return 0.75 + 0.5*t.m.sched.Rand().Float64()
}

// sent records that e went out at now and returns when it is next due. An
// intent asked for in a row-less phase was parked, and only request asks
// for those: it goes back to waiting to be asked.
func (t *Transport) sent(e *liveIntent, now time.Duration, jitter float64) time.Duration {
	requested := e.asked && t.rowless(e.Kind, e.Phase)
	e.dirty, e.asked, e.sentAt = false, false, now
	if requested {
		e.due = never
	} else {
		e.due = now + time.Duration(float64(t.m.cfg.RetxInterval<<e.age)*jitter)
	}
	return e.due
}

// beginFrame empties the node's section and entry scratch for a new frame.
func (t *Transport) beginFrame() {
	out := &t.m.out
	out.secScratch, out.entScratch, out.startScratch = out.secScratch[:0], out.entScratch[:0], out.startScratch[:0]
	out.nextRow = 0
}

// addEntry appends e to the frame being built, opening its section — after
// the NACK rows that sort before it, as entry-less sections — when it is the
// first entry of its (kind, phase). Entries arrive in wire order.
func (t *Transport) addEntry(e *liveIntent) {
	out := &t.m.out
	if n := len(out.secScratch); n == 0 || out.secScratch[n-1].Kind != e.Kind || out.secScratch[n-1].Phase != e.Phase {
		key := rowOrder(e.Kind, e.Phase)
		var nack packet.BitSet
		for ; out.nextRow < len(t.rows); out.nextRow++ {
			r := &t.rows[out.nextRow]
			if k := rowOrder(r.kind, r.phase); k > key {
				break
			} else if k == key {
				nack = r.bits
				out.nextRow++
				break
			}
			t.addRow(r)
		}
		t.addSection(e.Kind, e.Phase, nack)
	}
	out.entScratch = append(out.entScratch, packet.Entry{
		Slot: e.Slot, Sub: e.Sub, Round: e.Round, Flags: e.Flags, Data: e.Data,
	})
	class := SendTimer
	if e.sentAt == 0 {
		class = SendFirst
	} else if e.asked {
		class = SendAsked
	}
	t.m.entries[e.Kind][e.Phase][class] += uint64(packet.EntryOverhead + len(e.Data))
}

// addRow carries one of this node's NACK rows, if it has set it, in an
// entry-less section of the frame being built.
func (t *Transport) addRow(r *nackRow) {
	if r.bits != nil {
		t.addSection(r.kind, r.phase, r.bits)
	}
}

// addSection opens a section of the frame being built.
func (t *Transport) addSection(kind packet.Kind, phase packet.Phase, nack packet.BitSet) {
	out := &t.m.out
	out.secScratch = append(out.secScratch, packet.Section{Kind: kind, Phase: phase, Nack: nack})
	out.startScratch = append(out.startScratch, len(out.entScratch))
}

// endFrame appends the NACK rows no section has carried yet and returns
// the frame's sections. Entry spans are attached only now because the
// entry scratch may reallocate while growing.
func (t *Transport) endFrame() []packet.Section {
	out := &t.m.out
	for i := out.nextRow; i < len(t.rows); i++ {
		t.addRow(&t.rows[i])
	}
	secs, ents, starts := out.secScratch, out.entScratch, out.startScratch
	for i := range secs {
		end := len(ents)
		if i+1 < len(secs) {
			end = starts[i+1]
		}
		secs[i].Entries = ents[starts[i]:end]
	}
	return secs
}

// sendLogical encodes, signs and fragments one logical packet and queues
// its radio frames on the station, the first at an access of its own — or,
// when it follows, behind the packet an earlier epoch queued at the same
// win — and the rest to follow it in one burst. The signature's cost is
// charged to the node's CPU now, behind whatever it is already busy with,
// and no fragment may start before that charge completes: the station
// holds the medium until then. The packet is encoded and signed in the
// node's one buffer, which the station copies each fragment out of.
func (t *Transport) sendLogical(sections []packet.Section, follows bool) {
	m := t.m
	st := m.station
	frame := packet.Frame{
		Sender:   uint16(st.ID()),
		Session:  m.cfg.Session,
		Epoch:    t.epoch,
		Sections: sections,
	}
	body, err := frame.AppendBody(m.out.enc[:0])
	if err != nil {
		panic(fmt.Sprintf("core: frame encoding: %v", err))
	}
	sig := m.auth.Sign()
	signed := m.cpu.Charge(m.auth.CostSign)
	m.stats.SignOps++
	raw := append(body, byte(len(sig)>>8), byte(len(sig)))
	raw = append(raw, sig...)
	m.out.enc = raw
	m.stats.LogicalSent++
	chunk := st.Channel().Config().MaxFrame - fragHeaderLen
	total := fragmentCount(len(raw), chunk)
	for i := 0; i < total; i++ {
		m.out.fragBuf = appendFragment(m.out.fragBuf[:0], raw, uint16(st.ID()), m.out.seq, i, total, chunk)
		m.stats.FragmentsSent++
		if i == 0 && !follows {
			st.Queue(m.out.fragBuf, signed)
		} else {
			st.Follow(m.out.fragBuf, signed)
		}
	}
	m.out.seq++
}

// verifyJob is one received logical packet waiting on the node's CPU for
// its verification time. Records are recycled through Mux.jobFree, so the
// receive path allocates no closure per packet.
type verifyJob struct {
	t     *Transport
	from  uint16 // the station that transmitted the packet
	raw   []byte
	stale bool   // a newer packet of the epoch from the station came first
	run   func() // j.exec, bound once
}

// exec runs at the job's completion time on the CPU: verify and dispatch,
// then the packet buffer and the record go back to their free lists.
func (j *verifyJob) exec() {
	t := j.t
	t.dispatch(j.from, j.raw, j.stale)
	t.m.pkts.put(j.raw)
	j.t, j.raw = nil, nil
	t.m.jobFree = append(t.m.jobFree, j)
}

// ReceiveFrame implements wireless.Receiver for a standalone transport that
// is itself its station's receiver: Mux.ReceiveFrame.
func (t *Transport) ReceiveFrame(from wireless.NodeID, payload []byte) {
	t.m.ReceiveFrame(from, payload)
}

// receiveLogical verifies and dispatches one reassembled logical packet
// that station from transmitted and Mux.ReceiveFrame routed here by its
// header's session and epoch; seq is the packet's fragment sequence
// number, by which a packet completed after a newer one of the epoch from
// the same station is stale.
//
// raw is one of the Mux's packet buffers (packetBufs), which receiveLogical
// takes over: it goes back to the free list when dispatch returns, or now
// if the transport is stopped.
func (t *Transport) receiveLogical(from uint16, raw []byte, seq uint32) {
	if t.stopped {
		t.m.pkts.put(raw)
		return
	}
	for int(from) >= len(t.newest) {
		t.newest = append(t.newest, 0)
	}
	stale := seq < t.newest[from]
	t.newest[from] = max(t.newest[from], seq+1)
	m := t.m
	var j *verifyJob
	if n := len(m.jobFree); n > 0 {
		j, m.jobFree = m.jobFree[n-1], m.jobFree[:n-1]
	} else {
		j = new(verifyJob)
		j.run = j.exec
	}
	j.t, j.from, j.raw, j.stale = t, from, raw, stale
	m.cpu.Exec(m.auth.CostVerify, j.run)
}

// dispatch completes receiveLogical at the verification job's completion
// time: decode, verify, hand each section to its kind's handler, take in
// its NACK row, and, from a peer that lost state, take its entries as
// requests. A stale packet — the delay adversary reorders a node's frames
// — still delivers its entries and its rows still ask, but the rows are
// not kept, so a late frame can neither undo a peer's newer confirmations
// nor make it look as if it had lost state.
func (t *Transport) dispatch(from uint16, raw []byte, stale bool) {
	if t.stopped {
		return
	}
	t.m.stats.VerifyOps++
	dec := &t.m.dec
	frame, _, err := dec.Decode(raw)
	if err != nil {
		t.m.stats.AuthFailures++
		return
	}
	if !t.m.auth.Verify(from, frame.Sender, frame.Sig) {
		t.m.stats.AuthFailures++
	} else {
		t.m.stats.LogicalRecv++
		for i := range frame.Sections {
			sec := &frame.Sections[i]
			// The kind is a byte off the wire: past the table, no handler.
			if int(sec.Kind) < len(t.handlers) && t.handlers[sec.Kind] != nil {
				t.handlers[sec.Kind].HandleSection(frame.Sender, *sec)
			}
			t.heardFrom(frame.Sender, sec, stale)
			if t.regressed.Get(int(frame.Sender)) && t.m.cfg.RetxInterval > 0 {
				t.request(sec)
			}
		}
	}
	// The frame was the handlers' only until they returned: its sections
	// and entries are the decoder's reused storage, and every Nack, Data and
	// Sig aliases raw, the packet buffer exec clears and reuses. A handler
	// copies what it keeps, bytes and entries alike; zeroing both makes one
	// that kept an alias read zeros at once instead of a later frame's.
	dec.Release()
}

// wireOrder packs a key so that integer order is the wire ordering:
// sections group by (kind, phase), entries order by (slot, sub, round).
func (k IntentKey) wireOrder() uint64 {
	return uint64(k.Kind)<<40 | uint64(k.Phase)<<32 | uint64(k.Slot)<<24 | uint64(k.Sub)<<16 | uint64(k.Round)
}
