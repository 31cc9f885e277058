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
// After, which allocate it, or with Arm, which takes one the caller owns
// and may re-arm it while it is still queued. Most events are never
// cancelled; schedule those with Post or PostAfter instead, which need no
// handle at all — the queue slot itself carries the callback.
type Event struct {
	at time.Duration
	fn func()
	s  *Scheduler
	// seq is the sequence number of the handle's current queue slot: a
	// slot of the handle with another one was left behind by a re-arm,
	// and is skipped as a cancelled one is.
	seq       uint64
	cancelled bool
	// popped marks that the event's current queue slot has been consumed
	// (fired, skipped, or compacted away), so a late Cancel must not
	// perturb the scheduler's cancelled-event accounting.
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
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; an entire simulation (all nodes, channels, and
// protocol instances) runs inside one Scheduler. Concurrency across
// simulations (e.g. parameter sweeps) is achieved by running independent
// Schedulers in separate goroutines.
//
// Firing order is the strict total order (at, seq) — seq is unique and
// handed out at scheduling time, so same-instant ties resolve in
// scheduling order.
type Scheduler struct {
	now        time.Duration
	seq        uint64
	heap       []item
	nCancelled int // cancelled-but-unpopped heap events still occupying slots
	rng        *rand.Rand
	stopped    bool
	fired      uint64
}

// New returns a Scheduler whose random source is seeded with seed.
// Identical seeds produce identical simulations.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (duration since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still eligible to fire. Cancelled
// events that have not yet been discarded from the queue are excluded.
func (s *Scheduler) Pending() int { return len(s.heap) - s.nCancelled }

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
	e := &Event{at: t, fn: fn, s: s, seq: s.seq}
	s.push(item{at: t, seq: s.seq, e: e})
	s.seq++
	return e
}

// Arm schedules fn to run d from now on a handle the caller owns, exactly
// as After would — same clamping, same place in the firing order, the one
// next sequence number — minus After's allocation. The handle may be in
// any state: a zero Event, one that has fired (a timer re-arming itself
// from its callback), a cancelled one, or one still queued, whose slot
// Arm cancels first, as Cancel would, and leaves where it lies to be
// skipped. Arm resets it.
func (s *Scheduler) Arm(e *Event, d time.Duration, fn func()) {
	if e.s == s && !e.popped {
		e.Cancel()
	}
	if d < 0 {
		d = 0
	}
	*e = Event{at: s.now + d, fn: fn, s: s, seq: s.seq}
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

// PostAfterFixed is PostAfter. The benchmark rig (benchmark/layers.go) is
// its only caller; it goes with the next change that may edit benchmark/.
func (s *Scheduler) PostAfterFixed(d time.Duration, fn func()) { s.PostAfter(d, fn) }

// Step advances the simulation by one event. It returns false when the
// queue is empty or the scheduler has been stopped.
func (s *Scheduler) Step() bool { return s.step(math.MaxInt64) }

// step is Step restricted to events with timestamps <= limit.
func (s *Scheduler) step(limit time.Duration) bool {
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at <= limit {
		it := s.popMin()
		fn := it.fn
		if e := it.e; e != nil {
			if it.seq != e.seq { // left behind by a re-arm
				s.nCancelled--
				continue
			}
			e.popped = true
			if e.cancelled {
				s.nCancelled--
				continue
			}
			fn = e.fn
		}
		s.now = it.at
		s.fired++
		fn()
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
// Events scheduled exactly at t do fire.
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

// less orders heap slots by firing order, (at, seq).
func less(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

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
		if e := it.e; e != nil && (it.seq != e.seq || e.cancelled) {
			if it.seq == e.seq {
				e.popped = true
			}
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
