package sim

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of submission order: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(time.Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := New(1)
	var tick int
	var loop func()
	loop = func() {
		tick++
		if tick < 5 {
			s.After(time.Second, loop)
		}
	}
	s.After(0, loop)
	s.Run()
	if tick != 5 {
		t.Errorf("tick = %d, want 5", tick)
	}
	if s.Now() != 4*time.Second {
		t.Errorf("Now() = %v, want 4s", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (boundary inclusive)", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	s.Run()
	if len(fired) != 3 {
		t.Errorf("after Run, fired %d events, want 3", len(fired))
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunFor(5 * time.Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	s.RunFor(2 * time.Second)
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 (stopped early)", count)
	}
	if !s.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		s.At(0, func() {}) // in the past; must clamp, not rewind clock
	})
	s.Run()
	if s.Now() != time.Second {
		t.Errorf("clock rewound: Now() = %v", s.Now())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var vals []int64
		var loop func()
		loop = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 20 {
				s.After(time.Duration(s.Rand().Intn(100))*time.Millisecond, loop)
			}
		}
		s.After(0, loop)
		s.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d != %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestCPUSerializesWork(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s)
	var done []time.Duration
	record := func() { done = append(done, s.Now()) }
	cpu.Exec(100*time.Millisecond, record)
	cpu.Exec(50*time.Millisecond, record)
	cpu.Exec(0, record)
	s.Run()
	want := []time.Duration{100 * time.Millisecond, 150 * time.Millisecond, 150 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("job %d completed at %v, want %v", i, done[i], want[i])
		}
	}
	if cpu.BusyTotal() != 150*time.Millisecond {
		t.Errorf("BusyTotal = %v, want 150ms", cpu.BusyTotal())
	}
}

func TestCPUIdleGapThenWork(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s)
	var at time.Duration
	cpu.Exec(10*time.Millisecond, func() {})
	s.After(time.Second, func() {
		cpu.Exec(10*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != time.Second+10*time.Millisecond {
		t.Errorf("second job at %v, want 1.01s (no stale busyUntil)", at)
	}
	if cpu.Busy() {
		t.Error("CPU still busy after drain")
	}
}

// TestCPUChargeQueuesBehindExec: Charge takes its place in the CPU's FIFO
// like an Exec job, returns its completion time, and schedules nothing.
func TestCPUChargeQueuesBehindExec(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s)
	var ran time.Duration
	cpu.Exec(100*time.Millisecond, func() { ran = s.Now() })
	if done := cpu.Charge(30 * time.Millisecond); done != 130*time.Millisecond {
		t.Fatalf("charge behind a 100 ms job completes at %v, want 130ms", done)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the Exec completion alone", s.Pending())
	}
	var after time.Duration
	cpu.Exec(0, func() { after = s.Now() })
	s.Run()
	if ran != 100*time.Millisecond || after != 130*time.Millisecond {
		t.Fatalf("jobs completed at %v and %v, want 100ms and 130ms", ran, after)
	}
	if cpu.BusyTotal() != 130*time.Millisecond {
		t.Errorf("BusyTotal = %v, want 130ms", cpu.BusyTotal())
	}
	s.RunFor(time.Second)
	if done := cpu.Charge(10 * time.Millisecond); done != s.Now()+10*time.Millisecond {
		t.Errorf("charge on an idle CPU completes at %v, want now + 10ms", done)
	}
}

func TestEventNilSafety(t *testing.T) {
	// Cancel and Cancelled must both tolerate a nil event: drivers keep
	// "current timer" fields that are nil until first armed.
	var e *Event
	e.Cancel() // must not panic
	if !e.Cancelled() {
		t.Error("nil event not Cancelled: a nil timer can never fire")
	}
	s := New(1)
	live := s.After(time.Second, func() {})
	if live.Cancelled() {
		t.Error("pending event reported cancelled")
	}
	live.Cancel()
	if !live.Cancelled() {
		t.Error("cancelled event not reported cancelled")
	}
}

func TestSchedulerPendingExcludesCancelled(t *testing.T) {
	s := New(1)
	var evts []*Event
	for i := 0; i < 10; i++ {
		evts = append(evts, s.After(time.Duration(i+1)*time.Second, func() {}))
	}
	if s.Pending() != 10 || s.Cancelled() != 0 {
		t.Fatalf("Pending=%d Cancelled=%d, want 10/0", s.Pending(), s.Cancelled())
	}
	for _, e := range evts[:4] {
		e.Cancel()
	}
	if s.Pending() != 6 {
		t.Errorf("Pending = %d after 4 cancels, want 6", s.Pending())
	}
	if s.Cancelled() != 4 {
		t.Errorf("Cancelled = %d, want 4", s.Cancelled())
	}
	evts[0].Cancel() // double-cancel must not double-count
	if s.Cancelled() != 4 {
		t.Errorf("Cancelled = %d after double-cancel, want 4", s.Cancelled())
	}
	s.Run()
	if s.Pending() != 0 || s.Cancelled() != 0 {
		t.Errorf("after drain: Pending=%d Cancelled=%d, want 0/0", s.Pending(), s.Cancelled())
	}
	if s.Fired() != 6 {
		t.Errorf("Fired = %d, want 6", s.Fired())
	}
	// Cancelling an already-fired event must not disturb the accounting.
	evts[9].Cancel()
	if s.Cancelled() != 0 {
		t.Errorf("Cancelled = %d after post-fire cancel, want 0", s.Cancelled())
	}
}

func TestSchedulerCompaction(t *testing.T) {
	s := New(1)
	fired := 0
	// Interleave survivors among a large majority of cancelled events so
	// compaction triggers (cancelled > half the queue) mid-stream.
	var doomed []*Event
	for i := 0; i < 1000; i++ {
		d := time.Duration(i+1) * time.Millisecond
		if i%10 == 0 {
			s.After(d, func() { fired++ })
		} else {
			doomed = append(doomed, s.After(d, func() { t.Error("cancelled event fired") }))
		}
	}
	for _, e := range doomed {
		e.Cancel()
	}
	if got := s.Pending(); got != 100 {
		t.Fatalf("Pending = %d after mass cancel, want 100", got)
	}
	// Compaction must have discarded the cancelled slots in bulk.
	if s.Cancelled()*2 > s.Pending()+s.Cancelled() {
		t.Errorf("compaction did not run: %d cancelled slots remain", s.Cancelled())
	}
	s.Run()
	if fired != 100 {
		t.Errorf("fired = %d survivors, want 100", fired)
	}
	if s.Now() != 991*time.Millisecond {
		t.Errorf("Now() = %v, want 991ms (last survivor)", s.Now())
	}
}

func TestSchedulerPostOrdering(t *testing.T) {
	// Post/PostAfter events interleave with At/After events in strict
	// (time, submission) order.
	s := New(1)
	var got []int
	s.Post(2*time.Second, func() { got = append(got, 2) })
	s.After(time.Second, func() { got = append(got, 1) })
	s.PostAfter(time.Second, func() { got = append(got, 11) })
	s.At(2*time.Second, func() { got = append(got, 22) })
	s.PostAfter(-time.Second, func() { got = append(got, 0) })
	s.Run()
	want := []int{0, 1, 11, 2, 22}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	// The bench-grid hot path: a rolling horizon of scheduled events, a
	// fraction of which are cancelled before they fire (retransmission
	// timers), the rest firing in time order.
	s := New(1)
	var timer *Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
		s.PostAfter(d, func() {})
		if i%4 == 0 {
			timer.Cancel()
			timer = s.After(d+time.Millisecond, func() { timer = nil })
		}
		s.Step()
	}
	s.Run()
}

// TestArmFiresLikeAfter: a timer that re-arms one owned handle with Arm
// takes the same places in the firing order, among same-time ties
// included, as one that takes a fresh handle from After each time — and
// leaves Fired and Pending the same.
func TestArmFiresLikeAfter(t *testing.T) {
	run := func(arm bool) (log []string, fired uint64) {
		s := New(7)
		var owned Event
		var tick func()
		ticks := 0
		schedule := func(d time.Duration) {
			if arm {
				s.Arm(&owned, d, tick)
			} else {
				s.After(d, tick)
			}
		}
		tick = func() {
			log = append(log, "tick@"+s.Now().String())
			if ticks++; ticks < 20 {
				// Ties with the Post below: the sequence number decides.
				s.Post(s.Now()+time.Duration(ticks%3)*time.Millisecond, func() { log = append(log, "post@"+s.Now().String()) })
				schedule(time.Duration(ticks%3) * time.Millisecond)
			}
		}
		schedule(-time.Second) // clamped to now
		s.Run()
		if s.Pending() != 0 {
			t.Fatalf("arm=%v: %d events pending after Run", arm, s.Pending())
		}
		return log, s.Fired()
	}
	want, wantFired := run(false)
	got, gotFired := run(true)
	if gotFired != wantFired || len(got) != len(want) {
		t.Fatalf("Arm fired %d events (%d logged), After %d (%d)", gotFired, len(got), wantFired, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: Arm %s, After %s", i, got[i], want[i])
		}
	}
}

// TestArmCancelAndReuse: an armed handle cancels like any other, and may
// be armed again in any state: after it fired, after it was cancelled, and
// while its slot is still queued — that slot is then cancelled, counted
// and skipped as a cancelled event's is. Re-arming allocates nothing.
func TestArmCancelAndReuse(t *testing.T) {
	s := New(1)
	var e Event
	e.Cancel() // never armed: nothing to cancel
	fired := 0
	fn := func() { fired++ }
	s.Arm(&e, time.Second, fn)
	if e.Cancelled() || e.At() != time.Second || s.Pending() != 1 {
		t.Fatalf("armed: cancelled=%v at=%v pending=%d", e.Cancelled(), e.At(), s.Pending())
	}
	s.Arm(&e, 2*time.Second, fn) // queued: the first slot is left behind
	if e.Cancelled() || e.At() != 2*time.Second || s.Pending() != 1 || s.Cancelled() != 1 {
		t.Fatalf("re-armed while queued: cancelled=%v at=%v pending=%d cancelled slots=%d",
			e.Cancelled(), e.At(), s.Pending(), s.Cancelled())
	}
	s.RunUntil(time.Second)
	if fired != 0 || s.Pending() != 1 || s.Cancelled() != 0 {
		t.Fatalf("the slot left behind fired or stayed: fired=%d pending=%d cancelled=%d", fired, s.Pending(), s.Cancelled())
	}
	e.Cancel()
	s.Run()
	if fired != 0 || s.Pending() != 0 || s.Cancelled() != 0 {
		t.Fatalf("after cancel: fired=%d pending=%d cancelled=%d", fired, s.Pending(), s.Cancelled())
	}
	s.Arm(&e, time.Second, fn) // the cancelled slot was discarded: free again
	s.Run()
	if fired != 1 || e.Cancelled() {
		t.Fatalf("re-armed after cancel: fired=%d cancelled=%v", fired, e.Cancelled())
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Arm(&e, time.Second, fn)
		s.Step()
	})
	if allocs != 0 || fired != 102 {
		t.Fatalf("re-arming: %v allocations per cycle, %d firings", allocs, fired)
	}
	// A pre-empting re-arm, as a retransmission timer does when an earlier
	// re-send comes due: the handle fires once, at the earlier time.
	at := time.Duration(0)
	mark := func() { fired++; at = s.Now() }
	allocs = testing.AllocsPerRun(100, func() {
		s.Arm(&e, 2*time.Second, fn)
		s.Arm(&e, time.Second, mark)
		start := s.Now()
		s.Run()
		if at-start != time.Second {
			t.Fatalf("pre-empted timer fired %v after arming, want 1s", at-start)
		}
	})
	if allocs != 0 || fired != 203 || s.Cancelled() != 0 {
		t.Fatalf("pre-empting re-arm: %v allocations per cycle, %d firings, %d cancelled slots left", allocs, fired, s.Cancelled())
	}
}
