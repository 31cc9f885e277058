package sim

import (
	"testing"
	"time"
)

// gateWait is a Waiter blocked for as long as *closed holds (never, with a
// nil gate).
type gateWait struct {
	closed *bool
	wake   func()
}

func (g *gateWait) Blocked() bool { return g.closed != nil && *g.closed }
func (g *gateWait) Wake()         { g.wake() }

// armFunc arms one wait of period d on a gate.
type armFunc func(s *Scheduler, d time.Duration, closed *bool, wake func())

// armWait is the wait as the scheduler implements it.
func armWait(s *Scheduler, d time.Duration, closed *bool, wake func()) {
	s.WaitFixed(d, &gateWait{closed: closed, wake: wake})
}

// armPoll is the reference: the self-re-arming lane callback WaitFixed
// replaced, every period an event of its own.
func armPoll(s *Scheduler, d time.Duration, closed *bool, wake func()) {
	var poll func()
	poll = func() {
		if *closed {
			s.PostAfterFixed(d, poll)
			return
		}
		wake()
	}
	s.PostAfterFixed(d, poll)
}

// firing is one callback execution as a script records it.
type firing struct {
	now time.Duration
	id  int
}

type scriptResult struct {
	trace []firing
	rands []int64 // every value drawn from Rand(), in order
	fired uint64
	steps uint64 // Step calls that returned true
	now   time.Duration
}

// runWaitScript plays a seeded random script: callbacks scheduled through
// After, PostAfter and PostAfterFixed, some cancelled before they fire,
// that flip six gates, and waits of two periods armed on those gates. Every
// decision is a draw from the scheduler's own Rand() made inside a
// callback, so a single event firing out of order derails everything after
// it. All times sit on a 10 ms lattice, both periods are multiples of it:
// periods sat out and heap events keep landing on the same instant, and
// only their sequence numbers order them.
func runWaitScript(t *testing.T, seed int64, arm armFunc) scriptResult {
	const (
		gates  = 6
		budget = 6000 // callbacks that still schedule; the rest drain
	)
	delays := [2]time.Duration{120 * time.Millisecond, 50 * time.Millisecond}
	s := New(seed)
	var res scriptResult
	closed := make([]bool, gates)
	var timers []*Event
	left, nextID := budget, 0

	draw := func(n int) int {
		v := s.Rand().Int63()
		res.rands = append(res.rands, v)
		return int(v % int64(n))
	}
	lattice := func() time.Duration { return time.Duration(draw(40)) * 10 * time.Millisecond }
	var act func(id int)
	schedule := func() {
		nextID++
		id := nextID
		fn := func() { act(id) }
		switch draw(7) {
		case 0:
			timers = append(timers, s.After(lattice(), fn))
		case 1:
			s.PostAfter(lattice(), fn)
		case 2:
			s.PostAfterFixed(delays[draw(2)], fn)
		case 3, 4, 5:
			arm(s, delays[draw(2)], &closed[draw(gates)], fn)
		case 6:
			if len(timers) > 0 {
				timers[draw(len(timers))].Cancel()
			}
		}
	}
	act = func(id int) {
		res.trace = append(res.trace, firing{s.Now(), id})
		if left == 0 {
			// Drain: open every gate, schedule nothing more.
			for i := range closed {
				closed[i] = false
			}
			return
		}
		left--
		closed[draw(gates)] = draw(3) != 0 // shut two times in three
		for n := 1 + draw(2); n > 0; n-- {
			schedule()
		}
	}
	// A heartbeat keeps real events coming (and gates flipping) however
	// many of the scheduled callbacks are waits behind shut gates.
	var beat func()
	beat = func() {
		act(0)
		if left > 0 {
			s.PostAfter(70*time.Millisecond, beat)
		}
	}
	s.PostAfter(0, beat)
	for i := 0; i < 8; i++ {
		schedule()
	}
	for s.Step() {
		if res.steps++; res.steps > 50_000_000 {
			t.Fatal("script does not drain")
		}
	}
	res.fired, res.now = s.Fired(), s.Now()
	return res
}

// TestWaitFixedMatchesSelfRearmingPoll is the equivalence WaitFixed
// promises: against a reference waiter written as the self-re-arming
// PostAfterFixed callback it replaced, the same script fires the same
// callbacks at the same times in the same order, draws the same random
// values, and counts the same number of events.
func TestWaitFixedMatchesSelfRearmingPoll(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		got := runWaitScript(t, seed, armWait)
		want := runWaitScript(t, seed, armPoll)
		if len(got.trace) != len(want.trace) {
			t.Fatalf("seed %d: %d firings, reference %d", seed, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference %+v", seed, i, got.trace[i], want.trace[i])
			}
		}
		if len(got.rands) != len(want.rands) {
			t.Fatalf("seed %d: %d Rand draws, reference %d", seed, len(got.rands), len(want.rands))
		}
		for i := range want.rands {
			if got.rands[i] != want.rands[i] {
				t.Fatalf("seed %d: Rand draw %d differs", seed, i)
			}
		}
		if got.fired != want.fired || got.now != want.now {
			t.Fatalf("seed %d: Fired %d at %v, reference %d at %v", seed, got.fired, got.now, want.fired, want.now)
		}
		// The script must actually exercise what it compares: periods sat
		// out (Fired well above the callbacks run) and absorbed into runs
		// (fewer Step returns than events) — the reference steps once an
		// event.
		if want.steps != want.fired {
			t.Fatalf("seed %d: reference took %d steps for %d events", seed, want.steps, want.fired)
		}
		if sat := got.fired - uint64(len(got.trace)); sat < uint64(len(got.trace)) || got.steps >= got.fired {
			t.Fatalf("seed %d: %d callbacks, %d periods sat out, %d steps: the script barely blocks", seed, len(got.trace), sat, got.steps)
		}
	}
}

// TestWaitFixedOnlyBlockedWaits: a queue holding nothing but blocked waits
// must not trap Step — it returns once a lap, with the clock and Fired
// where the lap's polls would have left them.
func TestWaitFixedOnlyBlockedWaits(t *testing.T) {
	s := New(1)
	shut := true
	for i := 0; i < 3; i++ {
		s.WaitFixed(10*time.Millisecond, &gateWait{closed: &shut, wake: func() { t.Fatal("blocked wait woke") }})
	}
	for lap := 1; lap <= 5; lap++ {
		if !s.Step() {
			t.Fatalf("lap %d: Step returned false with waits queued", lap)
		}
		if want := time.Duration(lap) * 10 * time.Millisecond; s.Now() != want {
			t.Fatalf("lap %d: Now() = %v, want %v", lap, s.Now(), want)
		}
		if want := uint64(3 * lap); s.Fired() != want {
			t.Fatalf("lap %d: Fired() = %d, want %d", lap, s.Fired(), want)
		}
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending() = %d, want the 3 waits", s.Pending())
	}
}

// TestWaitFixedRunStopsBeforeEvent: a run of periods sat out ends before
// the event that follows it, whichever structure holds that event, so the
// caller of Step sees the state the last period left before the event
// runs — where a drive loop tests its deadline and its done().
func TestWaitFixedRunStopsBeforeEvent(t *testing.T) {
	const d = 20 * time.Millisecond
	for _, tc := range []struct {
		name string
		post func(s *Scheduler, fn func())
	}{
		{"heap", func(s *Scheduler, fn func()) { s.PostAfter(d, fn) }},
		{"lane callback", func(s *Scheduler, fn func()) { s.PostAfterFixed(d, fn) }},
		{"open wait", func(s *Scheduler, fn func()) { s.WaitFixed(d, &gateWait{wake: fn}) }},
	} {
		s := New(1)
		shut, ran := true, false
		blocked := &gateWait{closed: &shut, wake: func() {}}
		// Four slots due at the same instant, in this order: two blocked
		// waits, the event, a third blocked wait.
		s.WaitFixed(d, blocked)
		s.WaitFixed(d, blocked)
		tc.post(s, func() { ran = true })
		s.WaitFixed(d, blocked)
		if !s.Step() || ran || s.Fired() != 2 {
			t.Fatalf("%s: first step: ran=%v Fired()=%d, want the two periods ahead of the event and no more", tc.name, ran, s.Fired())
		}
		if !s.Step() || !ran || s.Fired() != 3 {
			t.Fatalf("%s: second step: ran=%v Fired()=%d, want the event alone", tc.name, ran, s.Fired())
		}
		if s.Now() != d {
			t.Fatalf("%s: Now() = %v, want %v", tc.name, s.Now(), d)
		}
	}
}

// TestWaitFixedRunUntil: RunUntil(t) sits out no period later than t —
// not as the first of a run and not inside one — and leaves the clock at t.
func TestWaitFixedRunUntil(t *testing.T) {
	s := New(1)
	shut := true
	var woke []time.Duration
	wake := func() { woke = append(woke, s.Now()) }
	// Periods at 10, 20, … and, armed 5 ms later, at 15, 25, …: a lap is
	// one of each.
	s.WaitFixed(10*time.Millisecond, &gateWait{closed: &shut, wake: wake})
	s.PostAfter(5*time.Millisecond, func() { s.WaitFixed(10*time.Millisecond, &gateWait{closed: &shut, wake: wake}) })
	s.RunUntil(32 * time.Millisecond)
	if s.Now() != 32*time.Millisecond {
		t.Fatalf("Now() = %v, want 32ms", s.Now())
	}
	if s.Fired() != 1+5 {
		t.Fatalf("Fired() = %d, want the arming event and the periods at 10, 15, 20, 25 and 30 ms", s.Fired())
	}
	// Had the periods at 35 or 40 ms been sat out early, opening the gate
	// now would wake the waits a period late.
	shut = false
	s.RunUntil(40 * time.Millisecond)
	if len(woke) != 2 || woke[0] != 35*time.Millisecond || woke[1] != 40*time.Millisecond {
		t.Fatalf("waits woke at %v, want 35ms and 40ms", woke)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

// TestWaitFixedLaneOverflow arms waits on more distinct periods than there
// are lanes; the ones that fall back to the heap must keep the order the
// reference poll gives.
func TestWaitFixedLaneOverflow(t *testing.T) {
	run := func(arm armFunc) (trace []firing, fired uint64) {
		s := New(1)
		shut := true
		for i := maxLanes + 2; i >= 1; i-- {
			i := i
			arm(s, time.Duration(i)*time.Millisecond, &shut, func() { trace = append(trace, firing{s.Now(), i}) })
		}
		s.PostAfter(12*time.Millisecond, func() { shut = false }) // a common multiple: every period ties
		s.Run()
		return trace, s.Fired()
	}
	got, gotFired := run(armWait)
	want, wantFired := run(armPoll)
	if len(got) != maxLanes+2 || gotFired != wantFired {
		t.Fatalf("woke %d of %d waits over %d events, reference %d events", len(got), maxLanes+2, gotFired, wantFired)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// BenchmarkBlockedWait measures a period sat out: 16 blocked waits share
// one lane, their periods 7.5 ms apart, and a heap event fires every
// 30 ms, so a run is four periods long.
func BenchmarkBlockedWait(b *testing.B) {
	s := New(1)
	shut := true
	w := &gateWait{closed: &shut, wake: func() {}}
	for i := 0; i < 16; i++ {
		s.PostAfter(time.Duration(i)*7500*time.Microsecond, func() { s.WaitFixed(120*time.Millisecond, w) })
	}
	var beats uint64
	var beat func()
	beat = func() {
		beats++
		s.PostAfter(30*time.Millisecond, beat)
	}
	s.PostAfter(time.Second, beat)
	s.RunUntil(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	beats = 0
	start := s.Fired()
	for s.Fired()-start < uint64(b.N) {
		s.Step()
	}
	b.StopTimer()
	if ticks := s.Fired() - start - beats; ticks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
	}
}
