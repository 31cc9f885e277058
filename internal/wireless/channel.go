package wireless

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/sim"
)

// Receiver consumes frames delivered by the channel. Implementations are
// invoked from scheduler events; they must not block. The payload is the
// channel's buffer, which it clears and reuses once the last receiver of
// the transmission has returned: a receiver may read it only until
// ReceiveFrame returns, and copies what it keeps.
type Receiver interface {
	ReceiveFrame(from NodeID, payload []byte)
}

// DeliveryHook lets tests and adversaries interfere with per-receiver
// delivery of an otherwise successful transmission. It returns an extra
// delivery delay and whether to drop the frame for this receiver. The
// asynchronous model permits unbounded but finite delays between honest
// nodes; hooks used in tests must respect eventual delivery for honest
// pairs or rely on the NACK retransmission machinery. The payload is the
// channel's buffer, as a Receiver is handed it: the hook may read it only
// until it returns.
type DeliveryHook func(from, to NodeID, payload []byte) (extra time.Duration, drop bool)

// Stats aggregates channel-level counters. Channel accesses are the
// quantity the paper's ConsensusBatcher minimizes: every successful or
// colliding transmission attempt is one access competition won.
type Stats struct {
	// Accesses counts successful channel accesses: a frame queued with
	// Station.Queue and the frames that follow it in the same burst
	// (Station.Follow) count once.
	Accesses   uint64
	Collisions uint64        // collision episodes (>=2 stations)
	Frames     uint64        // frames delivered (per receiver)
	LostRandom uint64        // deliveries dropped by random loss
	LostHook   uint64        // deliveries dropped by the adversary hook
	LostBusy   uint64        // deliveries missed due to half-duplex transmit
	BytesOnAir uint64        // payload bytes successfully transmitted
	AirTime    time.Duration // cumulative busy time of the medium, Held and burst gaps included
	// Held is the medium time between wins and first bits: a winner holds
	// the medium until its frame's not-before time (Station.Queue), and a
	// burst until its next frame's (Station.Follow). The SlotTime gaps
	// inside a burst are not holds.
	Held time.Duration
}

// Source supplies a station's frames at channel access, so that a frame
// carries whatever its sender has pending when it gets the medium rather
// than when it first asked for it.
type Source interface {
	// Pending reports whether the source has a frame to send. The channel
	// asks in every contention round in which the station has nothing
	// queued; it must be a pure read of simulation state. A source that
	// becomes pending while the channel is not already contending says so
	// with Station.Kick.
	Pending() bool
	// Build runs when the station wins the medium, or enters a collision,
	// with nothing queued: the source assembles its frames at that instant
	// and hands them over with Station.Queue and Station.Follow. A source
	// that was Pending in the round it won queues at least one frame.
	Build()
}

// queued is one frame waiting for the medium: it may not start before
// notBefore, and follows says it continues the access of the frame queued
// before it (Station.Follow).
type queued struct {
	frame     *frame
	notBefore time.Duration
	follows   bool
}

type station struct {
	id      NodeID
	recv    Receiver
	src     Source
	queue   []queued
	gen     uint64 // incremented by Reset; stale completions skip the pop
	cw      int
	txUntil time.Duration // half-duplex: busy transmitting until
}

// Channel is a single shared wireless medium. All attached stations hear
// every successful transmission (minus losses). It is driven entirely by
// the scheduler and is not safe for concurrent use.
type Channel struct {
	sched    *sim.Scheduler
	cfg      Config
	stations []*station // in attach order, the deterministic iteration order
	busyTill time.Duration
	hook     DeliveryHook
	stats    Stats
	// armed says a contention round is queued; arbFn is c.arbitrate bound
	// once (a method value allocates a closure each time it is taken), and
	// accessFn c.access, the end of the round's backoff.
	armed    bool
	arbFn    func()
	accessFn func()
	// contention-round scratch, reused across rounds: pending for one
	// arbitrate call, winners until the access that ends its backoff
	pending []*station
	winners []*station
	// tx is the one transmission on the air (the medium carries one at a
	// time) and txDoneFn its completion, c.txDone bound once. Likewise the
	// one collision episode: collisionAir is how long its longest frame
	// keeps the medium busy (hold included) and collisionHeld how much of
	// that is hold, collisionDoneFn its completion.
	tx              transmission
	txDoneFn        func()
	collisionAir    time.Duration
	collisionHeld   time.Duration
	collisionDoneFn func()
	// free holds delivery records for reuse, and frames the frame buffers
	// no queue, transmission or pending delivery holds.
	free   []*delivery
	frames []*frame
}

// frame is a payload in the channel's keeping, from Station.Queue or
// Station.Follow until the last delivery of its transmission has run: buf
// has capacity MaxFrame, and refs counts the deliveries still pending.
type frame struct {
	buf  []byte
	refs int
}

// takeFrame returns a frame buffer holding a copy of payload.
func (c *Channel) takeFrame(payload []byte) *frame {
	var f *frame
	if n := len(c.frames); n > 0 {
		f, c.frames = c.frames[n-1], c.frames[:n-1]
	} else {
		f = &frame{buf: make([]byte, 0, c.cfg.MaxFrame)}
	}
	f.buf = append(f.buf, payload...)
	return f
}

// putFrame clears f and puts it back on the free list.
func (c *Channel) putFrame(f *frame) {
	clear(f.buf)
	f.buf = f.buf[:0]
	c.frames = append(c.frames, f)
}

// NewChannel creates a channel with the given configuration. It panics on
// invalid configuration (programmer error, per the library's construction
// contract).
func NewChannel(s *sim.Scheduler, cfg Config) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Channel{sched: s, cfg: cfg}
	c.arbFn, c.accessFn, c.txDoneFn, c.collisionDoneFn = c.arbitrate, c.access, c.txDone, c.collisionDone
	return c
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// SetDeliveryHook installs an adversarial delivery hook (nil to clear).
func (c *Channel) SetDeliveryHook(h DeliveryHook) { c.hook = h }

// Attach registers a station. The returned Station is the node's transmit
// handle. Attaching a duplicate ID panics.
func (c *Channel) Attach(id NodeID, r Receiver) *Station {
	for _, st := range c.stations {
		if st.id == id {
			panic(fmt.Sprintf("wireless: duplicate station %d", id))
		}
	}
	st := &station{id: id, recv: r, cw: c.cfg.CWMin}
	c.stations = append(c.stations, st)
	return &Station{ch: c, st: st}
}

// Station is a node's handle for transmitting on a channel.
type Station struct {
	ch *Channel
	st *station
}

// ID returns the station's node ID.
func (s *Station) ID() NodeID { return s.st.id }

// Channel returns the channel the station is attached to.
func (s *Station) Channel() *Channel { return s.ch }

// SetSource binds the source the station pulls its frames from whenever
// its queue is empty, and contends at once if the source is pending.
func (s *Station) SetSource(src Source) {
	s.st.src = src
	s.Kick()
}

// Kick tells the channel the station's source may have become pending.
// While the medium is busy there is nothing to do: whatever holds it
// starts a contention round when it ends.
func (s *Station) Kick() {
	if s.ch.busyTill <= s.ch.sched.Now() {
		s.ch.kick()
	}
}

// Reset discards every frame queued for transmission and restores the
// initial contention window. Deployment layers call it when a node
// crashes: a dead radio neither drains its queue nor keeps contending. A
// frame already mid-air when Reset is called still completes (the energy
// is already committed), but nothing queued behind it transmits. A frame
// is mid-air from the moment its station wins the medium: the hold before
// its first bit is part of the transmission, so a crash during it does not
// take the frame back. A frame that follows another in a burst is won when
// the one before it ends, whether it is the next fragment of the same
// packet or the first of another packet the burst carries, so the hold
// before its not-before is part of it too; a crash while a frame of the
// burst is on the air or held for ends the burst after that frame. The
// buffers of the frames discarded go back to the channel at once.
func (s *Station) Reset() {
	for _, q := range s.st.queue {
		if q.frame != s.ch.tx.frame {
			s.ch.putFrame(q.frame)
		}
	}
	s.st.queue = s.st.queue[:0]
	s.st.gen++
	s.st.cw = s.ch.cfg.CWMin
}

// Broadcast queues a frame to go out at the station's next channel access
// and has the station contend for it.
func (s *Station) Broadcast(payload []byte) {
	s.Queue(payload, 0)
	s.Kick()
}

// Queue appends a frame to the station's transmit queue: it goes out in
// queue order at a channel access of its own, and its first bit no earlier
// than notBefore — until then the station holds the medium it won. Sources
// call it from Build. The payload is copied into a frame buffer of the
// channel's own, so the caller may reuse its buffer; every receiver is
// handed that copy, which goes back to the channel's free list once the
// last of them has returned (Receiver). Frames larger than MaxFrame panic:
// framing and fragmentation are the transport layer's responsibility.
func (s *Station) Queue(payload []byte, notBefore time.Duration) {
	s.enqueue(payload, notBefore, false)
}

// Follow appends a frame that continues the access of the frame queued
// before it — the next fragment of one logical packet, or the first of
// another packet sent at the same win. Once that frame has gone out
// without collision, this one starts SlotTime after it ends — shorter than
// DIFS, so no contender can take the medium in between (802.11's fragment
// burst) — or at notBefore if that is later, the station holding the
// medium until then. The SlotTime gap is medium time (AirTime) but no
// hold; a wait past it for notBefore is held (Stats.Held); neither is an
// access. The payload is copied as by Queue; a frame that follows nothing
// queued takes an access of its own.
func (s *Station) Follow(payload []byte, notBefore time.Duration) {
	s.enqueue(payload, notBefore, true)
}

func (s *Station) enqueue(payload []byte, notBefore time.Duration, follows bool) {
	if len(payload) > s.ch.cfg.MaxFrame {
		panic(fmt.Sprintf("wireless: frame of %d bytes exceeds MTU %d", len(payload), s.ch.cfg.MaxFrame))
	}
	s.st.queue = append(s.st.queue, queued{frame: s.ch.takeFrame(payload), notBefore: notBefore, follows: follows})
}

// kick ensures a contention round is scheduled when the medium next idles.
func (c *Channel) kick() {
	if c.armed {
		return
	}
	c.armed = true
	c.sched.Post(max(c.busyTill, c.sched.Now()), c.arbFn)
}

// contenders returns stations with queued frames or a pending source, in
// deterministic order. The returned slice is scratch owned by the channel,
// valid only until the next contention round.
func (c *Channel) contenders() []*station {
	out := c.pending[:0]
	for _, st := range c.stations {
		if len(st.queue) > 0 || st.src != nil && st.src.Pending() {
			out = append(out, st)
		}
	}
	c.pending = out
	return out
}

// arbitrate runs one CSMA contention round: every pending station draws a
// backoff slot; the unique minimum wins, ties collide. The round's backoff
// reserves the medium until access runs at its end.
func (c *Channel) arbitrate() {
	c.armed = false
	if c.busyTill > c.sched.Now() {
		c.kick() // medium became busy again; retry at idle
		return
	}
	pending := c.contenders()
	if len(pending) == 0 {
		return
	}
	rng := c.sched.Rand()
	minSlot := -1
	winners := c.winners[:0]
	for _, st := range pending {
		slot := rng.Intn(st.cw)
		switch {
		case minSlot == -1 || slot < minSlot:
			minSlot = slot
			winners = winners[:0]
			winners = append(winners, st)
		case slot == minSlot:
			winners = append(winners, st)
		}
	}
	c.winners = winners
	c.busyTill = c.sched.Now() + c.cfg.DIFS + time.Duration(minSlot)*c.cfg.SlotTime
	c.sched.Post(c.busyTill, c.accessFn)
}

// access ends a contention round's backoff: the winners own the medium.
// A winner with nothing queued has its source build its frames now, so
// they carry what is pending at this instant; one whose source has
// nothing left drops out, and a round nobody is left in frees the medium.
func (c *Channel) access() {
	now := c.sched.Now()
	winners := c.winners[:0]
	for _, st := range c.winners {
		if len(st.queue) == 0 && st.src != nil {
			st.src.Build()
		}
		if len(st.queue) > 0 {
			winners = append(winners, st)
		}
	}
	c.winners = winners
	switch len(winners) {
	case 0:
		c.kick()
	case 1:
		c.beginTx(winners[0], now, false)
	default:
		c.beginCollision(winners, now)
	}
}

// transmission is a successful frame on the medium, from beginTx to txDone:
// the medium is the station's from won — the win, or the end of the frame
// it follows in a burst (cont) — and the frame on the air from start. The
// frame stays at the head of the station's queue until txDone pops it,
// unless Reset drops the queue first, which leaves this frame alone.
type transmission struct {
	st              *station
	gen             uint64
	frame           *frame
	cont            bool
	won, start, end time.Duration
	held            time.Duration
}

// beginTx puts st's head frame on the air: at the access it won at won,
// after its hold; or, continuing a burst, SlotTime after the frame before
// it ended at won.
func (c *Channel) beginTx(st *station, won time.Duration, cont bool) {
	if c.tx.st != nil {
		panic("wireless: transmission begun while another is on the air")
	}
	q := st.queue[0]
	first := won
	if cont {
		first += c.cfg.SlotTime
	}
	start := max(first, q.notBefore)
	end := start + c.cfg.Airtime(len(q.frame.buf))
	c.busyTill = end
	st.txUntil = end
	c.tx = transmission{st: st, gen: st.gen, frame: q.frame, cont: cont, won: won, start: start, end: end, held: start - first}
	c.sched.Post(end, c.txDoneFn)
}

func (c *Channel) txDone() {
	tx := c.tx
	c.tx = transmission{}
	st := tx.st
	// The queue may have been Reset (node crash) while this frame was on
	// the air; frames queued since then belong to a new generation and
	// must not be popped by this stale completion. They start with a frame
	// that follows nothing, so neither do they continue its burst.
	// The queue slides down rather than re-slicing from the front, which
	// would walk its capacity away and make Broadcast reallocate it.
	if tx.gen == st.gen && len(st.queue) > 0 {
		st.queue = slices.Delete(st.queue, 0, 1)
	}
	st.cw = c.cfg.CWMin
	if !tx.cont {
		c.stats.Accesses++
	}
	c.stats.BytesOnAir += uint64(len(tx.frame.buf))
	c.stats.AirTime += tx.end - tx.won
	c.stats.Held += tx.held
	c.deliver(st, tx.frame, tx.start, tx.end)
	if len(st.queue) > 0 && st.queue[0].follows {
		c.beginTx(st, tx.end, true)
		return
	}
	c.kick()
}

// beginCollision puts every winner's head frame on the air at once, each
// from its own first bit; the medium is busy until the last one ends. The
// frames that follow a collided one stay queued behind it: its burst goes
// out after the station's next win.
func (c *Channel) beginCollision(winners []*station, won time.Duration) {
	end, held := won, time.Duration(math.MaxInt64)
	for _, st := range winners {
		q := st.queue[0]
		start := max(won, q.notBefore)
		end = max(end, start+c.cfg.Airtime(len(q.frame.buf)))
		held = min(held, start-won)
	}
	c.busyTill = end
	for _, st := range winners {
		st.txUntil = end
		if st.cw*2 <= c.cfg.CWMax {
			st.cw *= 2
		}
	}
	c.collisionAir, c.collisionHeld = end-won, held
	c.sched.Post(end, c.collisionDoneFn)
}

// collisionDone ends the collision episode begun by beginCollision. There
// is one at a time: busyTill keeps the next contention round off the
// medium until this one is over.
func (c *Channel) collisionDone() {
	c.stats.Collisions++
	c.stats.AirTime += c.collisionAir
	c.stats.Held += c.collisionHeld
	c.kick()
}

// deliver fans a successful frame out to every other station, applying
// half-duplex, random loss, and the adversary hook. The frame goes back to
// the free list when the last delivery it posts has run, or now if it
// posts none.
func (c *Channel) deliver(from *station, f *frame, start, end time.Duration) {
	rng := c.sched.Rand()
	for _, st := range c.stations {
		if st == from {
			continue
		}
		if st.txUntil > start {
			c.stats.LostBusy++
			continue
		}
		if c.cfg.LossProb > 0 && rng.Float64() < c.cfg.LossProb {
			c.stats.LostRandom++
			continue
		}
		extra := time.Duration(0)
		if c.hook != nil {
			d, drop := c.hook(from.id, st.id, f.buf)
			if drop {
				c.stats.LostHook++
				continue
			}
			extra = d
		}
		c.stats.Frames++
		var d *delivery
		if n := len(c.free); n > 0 {
			d, c.free = c.free[n-1], c.free[:n-1]
		} else {
			d = &delivery{c: c}
			d.run = d.exec
		}
		d.recv, d.from, d.frame = st.recv, from.id, f
		f.refs++
		c.sched.Post(end+extra, d.run)
	}
	if f.refs == 0 {
		c.putFrame(f)
	}
}

// delivery is one frame on its way to one receiver. Records are recycled
// through Channel.free, so a delivery allocates no closure. The frame is
// the channel's copy of the transmission (see Queue), shared by every
// receiver of it: receivers read it only until they return, and the last
// delivery to run puts it back on the free list.
type delivery struct {
	c     *Channel
	recv  Receiver
	from  NodeID
	frame *frame
	run   func() // exec, bound once
}

func (d *delivery) exec() {
	c, recv, from, f := d.c, d.recv, d.from, d.frame
	d.recv, d.frame = nil, nil
	c.free = append(c.free, d)
	recv.ReceiveFrame(from, f.buf)
	if f.refs--; f.refs == 0 {
		c.putFrame(f)
	}
}
