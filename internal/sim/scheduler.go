// Package sim provides a deterministic discrete-event scheduler with a
// virtual clock. All protocol and wireless-channel behaviour in this
// repository runs on top of it, which makes simulations of LoRa-scale
// latencies (tens of seconds of virtual time) complete in milliseconds of
// wall time and makes every run reproducible from a seed.
package sim

import (
	"math"
	"math/rand"
	"time"
)

// Event is the cancellation handle for a callback scheduled with At or
// After, which allocate it, or with Arm, which takes one the caller owns.
// Most events are never cancelled; schedule those with Post or PostAfter
// instead, which need no handle at all — the queue slot itself carries
// the callback.
type Event struct {
	at        time.Duration
	fn        func()
	s         *Scheduler
	cancelled bool
	// popped marks that the event's queue slot has been consumed (fired,
	// skipped, or compacted away), so a late Cancel must not perturb the
	// scheduler's cancelled-event accounting.
	popped bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event, or a handle that was never armed, is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.cancelled || e.s == nil {
		return
	}
	e.cancelled = true
	e.fn = nil // release the closure; it can never run
	if !e.popped {
		e.s.nCancelled++
		e.s.maybeCompact()
	}
}

// Cancelled reports whether Cancel was called on the event. Like Cancel,
// it is nil-safe: a nil event (never scheduled) reports true, since it will
// certainly never fire.
func (e *Event) Cancelled() bool { return e == nil || e.cancelled }

// At returns the virtual time at which the event is scheduled to fire.
func (e *Event) At() time.Duration { return e.at }

// item is one heap slot. The heap stores items by value in a packed
// 4-ary heap: no per-event heap node, no container/heap interface calls,
// and — for the Post/PostAfter and CPU.Exec fast paths, which carry the
// callback inline — no per-event allocation at all. Cancellable events
// (At/After) carry an *Event handle instead and are skipped lazily at pop
// time.
type item struct {
	at  time.Duration
	seq uint64
	fn  func() // inline callback; nil when e carries it
	e   *Event // cancellation handle; nil on the fast path
	cpu *CPU   // when set, a CPU completion: decrement cpu.queued at fire
}

// Waiter is a recurring fixed-delay wait (WaitFixed): a party that wants to
// act once some condition clears and looks at it again every d until then.
type Waiter interface {
	// Blocked reports whether the wait goes on for another period. The
	// scheduler calls it from inside Step each time the wait comes due, so
	// it must be a pure read of simulation state: no scheduling, no Rand
	// draw, no side effect.
	Blocked() bool
	// Wake runs as an ordinary event the first time the wait comes due and
	// Blocked does not hold.
	Wake()
}

// slot is one lane entry: a handle-free callback (PostAfterFixed) or a
// wait (WaitFixed). Lane slots cannot be cancelled.
type slot struct {
	at  time.Duration
	seq uint64
	fn  func() // callback; nil for a wait
	w   Waiter // wait; nil for a callback
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; an entire simulation (all nodes, channels, and
// protocol instances) runs inside one Scheduler. Concurrency across
// simulations (e.g. parameter sweeps) is achieved by running independent
// Schedulers in separate goroutines.
//
// Firing order is the strict total order (at, seq) — seq is unique — over
// the heap and every lane together, so it is independent of where a slot
// is stored.
type Scheduler struct {
	now        time.Duration
	seq        uint64
	heap       []item
	nCancelled int // cancelled-but-unpopped heap events still occupying slots
	rng        *rand.Rand
	stopped    bool
	fired      uint64

	// lanes are FIFO fast paths for recurring fixed relative delays
	// (PostAfterFixed, WaitFixed): an interval re-armed millions of times
	// would otherwise dominate heap traffic. For one fixed d, at = now + d
	// and seq are both monotone in scheduling order, so append order IS
	// (at, seq) pop order — O(1) insert and pop, no sifting.
	lanes []lane
}

// lane is one fixed-delay FIFO: slots between head and len(items) are
// queued in firing order. The backing array is reset (not reallocated)
// whenever the lane empties.
type lane struct {
	d     time.Duration
	items []slot
	head  int
}

// maxLanes bounds the per-step lane scan. Delays beyond the cap fall back
// to the heap, which is always correct.
const maxLanes = 4

// New returns a Scheduler whose random source is seeded with seed.
// Identical seeds produce identical simulations.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (duration since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the total number of events executed so far, the periods a
// blocked wait sat out included (each is the poll event it stands for).
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still eligible to fire. Cancelled
// events that have not yet been discarded from the queue are excluded.
func (s *Scheduler) Pending() int {
	n := len(s.heap) - s.nCancelled
	for i := range s.lanes {
		n += len(s.lanes[i].items) - s.lanes[i].head
	}
	return n
}

// Cancelled returns the number of cancelled events still occupying queue
// slots (they are discarded lazily at pop time, or in bulk when they come
// to dominate the queue).
func (s *Scheduler) Cancelled() int { return s.nCancelled }

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn at absolute virtual time t and returns a cancellation
// handle. Times in the past are clamped to now. Callers that never cancel
// should prefer Post, which does not allocate a handle.
func (s *Scheduler) At(t time.Duration, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	e := &Event{at: t, fn: fn, s: s}
	s.push(item{at: t, seq: s.seq, e: e})
	s.seq++
	return e
}

// Arm schedules fn to run d from now on a handle the caller owns, exactly
// as After would — same clamping, same place in the firing order, the one
// next sequence number — minus After's allocation. The handle must not be
// queued: a zero Event, one that has fired (a timer re-arming itself from
// its callback), or a cancelled one whose slot is gone. Arm resets it.
func (s *Scheduler) Arm(e *Event, d time.Duration, fn func()) {
	if e.s != nil && !e.popped {
		panic("sim: Arm on an event that is still queued")
	}
	if d < 0 {
		d = 0
	}
	*e = Event{at: s.now + d, fn: fn, s: s}
	s.push(item{at: e.at, seq: s.seq, e: e})
	s.seq++
}

// Post schedules fn at absolute virtual time t with no cancellation
// handle. It is the allocation-free fast path for fire-and-forget events
// (deliveries, CPU completions, injection loops): the callback rides in
// the queue slot itself. Times in the past are clamped to now.
func (s *Scheduler) Post(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.push(item{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// PostAfter schedules fn to run d from now with no cancellation handle.
// Negative d is treated as zero.
func (s *Scheduler) PostAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Post(s.now+d, fn)
}

// PostAfterFixed is PostAfter for a delay that recurs with the same value
// many times over a run. Slots go to a per-delay FIFO lane with O(1) insert
// and pop instead of the heap; firing order is identical to PostAfter (the
// strict (time, seq) order), because for one fixed delay both the target
// time and the sequence number are monotone in scheduling order. The first
// few distinct delays get lanes; later ones silently fall back to the heap.
//
// Since the transport's backpressure poll became a WaitFixed, the only
// callers left are the benchmark's sim rig and this package's tests; it
// goes with the next change that may edit benchmark/.
func (s *Scheduler) PostAfterFixed(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	l := s.laneFor(d)
	if l == nil {
		s.Post(s.now+d, fn)
		return
	}
	l.items = append(l.items, slot{at: s.now + d, seq: s.seq, fn: fn})
	s.seq++
}

// WaitFixed arms a wait: d from now, and every d after that for as long as
// w.Blocked() holds when the wait comes due, the wait sits out another
// period; the first time it does not hold, w.Wake() runs and the wait is
// over. The order of events, their sequence numbers, Now and Fired are
// exactly those of a callback that tests Blocked and re-arms itself with
// PostAfterFixed — every period is a place in the (time, seq) order and
// takes the next sequence number — but a period sat out costs a re-stamp of
// the lane slot inside Step instead of an event: see Step.
func (s *Scheduler) WaitFixed(d time.Duration, w Waiter) {
	if d < 0 {
		d = 0
	}
	l := s.laneFor(d)
	if l == nil {
		// No lane left for this delay: the same wait as a heap event that
		// re-posts itself. Slower, same order.
		var poll func()
		poll = func() {
			if w.Blocked() {
				s.Post(s.now+d, poll)
				return
			}
			w.Wake()
		}
		s.Post(s.now+d, poll)
		return
	}
	l.items = append(l.items, slot{at: s.now + d, seq: s.seq, w: w})
	s.seq++
}

// laneFor returns the lane dedicated to delay d, creating it if the cap
// allows, or nil when d must use the heap.
func (s *Scheduler) laneFor(d time.Duration) *lane {
	for i := range s.lanes {
		if s.lanes[i].d == d {
			return &s.lanes[i]
		}
	}
	if len(s.lanes) >= maxLanes {
		return nil
	}
	s.lanes = append(s.lanes, lane{d: d})
	return &s.lanes[len(s.lanes)-1]
}

// minLane returns the lane whose head slot fires earliest, or nil when
// every lane is empty.
func (s *Scheduler) minLane() *lane {
	var best *lane
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.head == len(l.items) {
			continue
		}
		if best == nil || earlier(l.items[l.head].at, l.items[l.head].seq, best.items[best.head].at, best.items[best.head].seq) {
			best = l
		}
	}
	return best
}

// advance consumes the lane's head slot and reclaims the backing array.
func (l *lane) advance() {
	l.head++
	switch {
	case l.head == len(l.items):
		l.items = l.items[:0] // reuse the backing array
		l.head = 0
	case l.head > 64 && l.head*2 >= len(l.items):
		// A lane shared by many pollers never fully drains, so also
		// reclaim the consumed prefix once it dominates: slide the live
		// tail to the front (amortized O(1) — each slot moves at most once
		// per lifetime).
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items = l.items[:n]
		l.head = 0
	}
}

// postCPU enqueues a CPU completion: fn runs at t, immediately after the
// owning CPU's queue accounting is decremented. t is never in the past
// (CPU completion times are >= now by construction).
func (s *Scheduler) postCPU(t time.Duration, fn func(), c *CPU) {
	s.push(item{at: t, seq: s.seq, fn: fn, cpu: c})
	s.seq++
}

// Step advances the simulation by one event, or by one run of blocked
// waits. It returns false when the queue is empty or the scheduler has
// been stopped.
//
// When the earliest slot of all is a wait whose Blocked() holds, Step sits
// the period out in place: the clock moves to the slot's time, Fired counts
// it, and the slot goes to its lane's tail one delay later under the next
// sequence number — what firing a self-re-arming poll would have left
// behind, without the event. Step goes on doing that for as long as the
// earliest slot is such a wait, then returns true without firing the event
// that ended the run, so a drive loop tests its deadline and its done()
// against the clock of the last period sat out, as it did after the last
// poll. A run ends at the latest when it meets a slot it re-stamped
// itself — once round the lane — so a queue holding nothing but blocked
// waits still returns to its caller every lap.
func (s *Scheduler) Step() bool { return s.step(math.MaxInt64) }

// step is Step restricted to slots with timestamps <= limit.
func (s *Scheduler) step(limit time.Duration) bool {
	// Only sitting a period out advances seq inside this loop, so
	// s.seq != runStart says a run is under way, and a slot stamped
	// runStart or later is one this run re-stamped.
	runStart := s.seq
	for !s.stopped {
		l := s.minLane()
		if l == nil || (len(s.heap) > 0 && !earlier(l.items[l.head].at, l.items[l.head].seq, s.heap[0].at, s.heap[0].seq)) {
			// The earliest slot is the heap's, or nothing is queued.
			if s.seq != runStart {
				return true
			}
			if len(s.heap) == 0 || s.heap[0].at > limit {
				return false
			}
			it := s.popMin()
			fn := it.fn
			if e := it.e; e != nil {
				e.popped = true
				if e.cancelled {
					s.nCancelled--
					continue
				}
				fn = e.fn
			}
			s.now = it.at
			s.fired++
			if it.cpu != nil {
				it.cpu.queued--
			}
			fn()
			return true
		}
		sl := l.items[l.head]
		if sl.at > limit {
			return s.seq != runStart
		}
		if sl.w != nil && sl.w.Blocked() {
			if sl.seq >= runStart {
				return true
			}
			s.now = sl.at
			s.fired++
			sl.at += l.d
			sl.seq = s.seq
			s.seq++
			l.items = append(l.items, sl)
			l.advance()
			continue
		}
		if s.seq != runStart {
			return true
		}
		l.items[l.head] = slot{} // release the callback for GC
		l.advance()
		s.now = sl.at
		s.fired++
		if sl.w != nil {
			sl.w.Wake()
		} else {
			sl.fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled exactly at t do fire, and a blocked wait sits out no
// period later than t.
func (s *Scheduler) RunUntil(t time.Duration) {
	for s.step(t) {
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Stop halts Run/RunUntil at the next event boundary. Pending events remain
// queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// earlier orders two (at, seq) stamps — the firing order.
func earlier(at1 time.Duration, seq1 uint64, at2 time.Duration, seq2 uint64) bool {
	if at1 != at2 {
		return at1 < at2
	}
	return seq1 < seq2
}

// less orders heap slots by firing order.
func less(a, b *item) bool { return earlier(a.at, a.seq, b.at, b.seq) }

// push inserts it into the 4-ary heap, sifting up with hole movement (each
// level costs one copy, not one swap).
func (s *Scheduler) push(it item) {
	s.heap = append(s.heap, item{})
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if less(&h[p], &it) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// popMin removes and returns the earliest slot. The caller guarantees the
// heap is non-empty.
func (s *Scheduler) popMin() item {
	h := s.heap
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item{} // release closures/handles for GC
	s.heap = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return min
}

// siftDown restores the heap property below slot i. A 4-ary layout halves
// tree depth versus binary; the extra comparisons per level stay in one
// cache line of packed items.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	it := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if less(&it, &h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}

// maybeCompact discards cancelled slots in bulk once they dominate the
// queue, so workloads that cancel far more events than they fire (e.g.
// per-message retransmission timers) keep the heap — and every sift —
// proportional to the live event count.
func (s *Scheduler) maybeCompact() {
	if s.nCancelled <= 64 || s.nCancelled*2 <= len(s.heap) {
		return
	}
	live := s.heap[:0]
	for _, it := range s.heap {
		if it.e != nil && it.e.cancelled {
			it.e.popped = true
			continue
		}
		live = append(live, it)
	}
	tail := s.heap[len(live):]
	for i := range tail {
		tail[i] = item{}
	}
	s.heap = live
	s.nCancelled = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i)
	}
}
