package wireless

import (
	"testing"
	"time"

	"repro/internal/sim"
)

type sink struct {
	frames []struct {
		from    NodeID
		payload []byte
		at      time.Duration
	}
	sched *sim.Scheduler
}

func (s *sink) ReceiveFrame(from NodeID, payload []byte) {
	s.frames = append(s.frames, struct {
		from    NodeID
		payload []byte
		at      time.Duration
	}{from, payload, s.sched.Now()})
}

func lossless() Config {
	cfg := DefaultConfig()
	cfg.LossProb = 0
	return cfg
}

func newTestChannel(t *testing.T, n int, cfg Config) (*sim.Scheduler, *Channel, []*Station, []*sink) {
	t.Helper()
	s := sim.New(7)
	ch := NewChannel(s, cfg)
	stations := make([]*Station, n)
	sinks := make([]*sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &sink{sched: s}
		stations[i] = ch.Attach(NodeID(i), sinks[i])
	}
	return s, ch, stations, sinks
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 4, lossless())
	st[0].Broadcast([]byte("hello"))
	s.Run()
	for i := 1; i < 4; i++ {
		if len(sinks[i].frames) != 1 {
			t.Fatalf("node %d got %d frames, want 1", i, len(sinks[i].frames))
		}
		if string(sinks[i].frames[0].payload) != "hello" {
			t.Errorf("node %d payload = %q", i, sinks[i].frames[0].payload)
		}
		if sinks[i].frames[0].from != 0 {
			t.Errorf("node %d from = %d", i, sinks[i].frames[0].from)
		}
	}
	if len(sinks[0].frames) != 0 {
		t.Error("sender received its own frame")
	}
	if got := ch.Stats().Accesses; got != 1 {
		t.Errorf("accesses = %d, want 1", got)
	}
}

func TestAirtimeScalesWithSize(t *testing.T) {
	cfg := lossless()
	small := cfg.Airtime(10)
	large := cfg.Airtime(200)
	if large <= small {
		t.Fatalf("airtime(200)=%v not > airtime(10)=%v", large, small)
	}
	// 190 extra bytes at 5470 bps is ~278 ms.
	extra := large - small
	want := time.Duration(190 * 8 / cfg.BitRate * float64(time.Second))
	if diff := extra - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("airtime delta = %v, want ~%v", extra, want)
	}
}

func TestSerializedMedium(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 3, lossless())
	// Two stations transmit "simultaneously": the medium must serialize.
	st[0].Broadcast(make([]byte, 100))
	st[1].Broadcast(make([]byte, 100))
	s.Run()
	if got := ch.Stats().Accesses + ch.Stats().Collisions; got < 2 {
		t.Fatalf("expected at least 2 channel events, got %d", got)
	}
	// Node 2 must receive both frames eventually (collisions retried).
	if len(sinks[2].frames) != 2 {
		t.Fatalf("node 2 received %d frames, want 2", len(sinks[2].frames))
	}
	if sinks[2].frames[0].at == sinks[2].frames[1].at {
		t.Error("two frames delivered at the same instant; medium not serialized")
	}
}

func TestContentionRetriesUntilAllDelivered(t *testing.T) {
	// Many stations all contending: collisions occur but every frame must
	// eventually get through (CSMA with doubling CW).
	s, ch, st, sinks := newTestChannel(t, 8, lossless())
	for i := range st {
		st[i].Broadcast([]byte{byte(i)})
	}
	s.Run()
	for i, sk := range sinks {
		if len(sk.frames) != 7 {
			t.Fatalf("node %d received %d frames, want 7", i, len(sk.frames))
		}
	}
	if ch.Stats().Accesses != 8 {
		t.Errorf("accesses = %d, want 8", ch.Stats().Accesses)
	}
}

func TestRandomLossDropsSomeDeliveries(t *testing.T) {
	cfg := lossless()
	cfg.LossProb = 0.5
	s, ch, st, sinks := newTestChannel(t, 2, cfg)
	for i := 0; i < 200; i++ {
		st[0].Broadcast([]byte{byte(i)})
	}
	s.Run()
	got := len(sinks[1].frames)
	if got == 0 || got == 200 {
		t.Fatalf("with 50%% loss received %d/200 frames", got)
	}
	if ch.Stats().LostRandom == 0 {
		t.Error("LostRandom counter not incremented")
	}
}

func TestDeliveryHookDropAndDelay(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 3, lossless())
	ch.SetDeliveryHook(func(from, to NodeID, _ []byte) (time.Duration, bool) {
		if to == 1 {
			return 0, true // partition node 1
		}
		return 5 * time.Second, false // delay node 2
	})
	st[0].Broadcast([]byte("x"))
	s.Run()
	if len(sinks[1].frames) != 0 {
		t.Error("hook drop ignored")
	}
	if len(sinks[2].frames) != 1 {
		t.Fatal("hook delay lost the frame")
	}
	if sinks[2].frames[0].at < 5*time.Second {
		t.Errorf("frame at %v, want >= 5s", sinks[2].frames[0].at)
	}
	if ch.Stats().LostHook != 1 {
		t.Errorf("LostHook = %d, want 1", ch.Stats().LostHook)
	}
}

func TestMTUEnforced(t *testing.T) {
	_, _, st, _ := newTestChannel(t, 2, lossless())
	defer func() {
		if recover() == nil {
			t.Error("oversized frame did not panic")
		}
	}()
	st[0].Broadcast(make([]byte, 10_000))
}

func TestDuplicateStationPanics(t *testing.T) {
	s := sim.New(1)
	ch := NewChannel(s, lossless())
	ch.Attach(3, &sink{sched: s})
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach did not panic")
		}
	}()
	ch.Attach(3, &sink{sched: s})
}

func TestPayloadCopiedOnBroadcast(t *testing.T) {
	s, _, st, sinks := newTestChannel(t, 2, lossless())
	buf := []byte("original")
	st[0].Broadcast(buf)
	copy(buf, "mutated!")
	s.Run()
	if string(sinks[1].frames[0].payload) != "original" {
		t.Errorf("payload aliased caller buffer: %q", sinks[1].frames[0].payload)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"zero bitrate", func(c *Config) { c.BitRate = 0 }, false},
		{"cw inverted", func(c *Config) { c.CWMin = 64; c.CWMax = 8 }, false},
		{"loss 1.0", func(c *Config) { c.LossProb = 1 }, false},
		{"tiny mtu", func(c *Config) { c.MaxFrame = 4 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestDeterministicChannel(t *testing.T) {
	run := func() []time.Duration {
		s := sim.New(99)
		ch := NewChannel(s, DefaultConfig())
		sinks := make([]*sink, 4)
		stations := make([]*Station, 4)
		for i := range sinks {
			sinks[i] = &sink{sched: s}
			stations[i] = ch.Attach(NodeID(i), sinks[i])
		}
		for r := 0; r < 5; r++ {
			for i := range stations {
				stations[i].Broadcast(make([]byte, 50+10*i))
			}
		}
		s.Run()
		var times []time.Duration
		for _, sk := range sinks {
			for _, f := range sk.frames {
				times = append(times, f.at)
			}
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery time at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStationResetFlushesQueue(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 3, lossless())
	// Queue several frames, let the first go on air, then crash the sender.
	for i := 0; i < 4; i++ {
		st[0].Broadcast([]byte{byte(i), 1, 2, 3})
	}
	s.RunFor(time.Millisecond) // into the first transmission
	st[0].Reset()
	s.Run()
	// At most the mid-air frame is delivered; the queued rest is gone.
	if got := len(sinks[1].frames); got > 1 {
		t.Errorf("receiver got %d frames after Reset, want <= 1", got)
	}
	if n := len(st[0].st.queue); n != 0 {
		t.Errorf("queue not flushed: %d frames", n)
	}
	// The station keeps working after a Reset (recovery).
	st[0].Broadcast([]byte("back"))
	s.Run()
	last := sinks[1].frames[len(sinks[1].frames)-1]
	if string(last.payload) != "back" {
		t.Errorf("post-recovery frame not delivered, last = %q", last.payload)
	}
	if got := ch.Stats().Accesses; got == 0 {
		t.Error("no accesses counted")
	}
}

// TestDeliveryRecordsRecycled: deliveries ride recycled records, so many
// frames in flight at once (the hook spreads them out) must each reach
// their receiver with their own sender and payload, and the pool must stop
// at the high-water mark of deliveries in flight, not grow with traffic.
func TestDeliveryRecordsRecycled(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 3, lossless())
	ch.SetDeliveryHook(func(from, to NodeID, _ []byte) (time.Duration, bool) {
		return time.Duration(from+to) * 700 * time.Millisecond, false
	})
	const frames = 48 // per round, 16 from each station
	round := func() {
		for i := 0; i < frames; i++ {
			st[i%3].Broadcast([]byte{byte(i % 3), byte(i)})
		}
		s.Run()
	}
	const rounds = 5
	round()
	pooled := len(ch.free)
	for i := 1; i < rounds; i++ {
		round()
	}
	if pooled == 0 || len(ch.free) >= 2*pooled {
		t.Fatalf("%d delivery records pooled after one round, %d after %d: the pool grows with traffic", pooled, len(ch.free), rounds)
	}
	for to, sk := range sinks {
		if want := rounds * frames * 2 / 3; len(sk.frames) != want {
			t.Fatalf("node %d got %d frames, want %d", to, len(sk.frames), want)
		}
		for _, f := range sk.frames {
			if len(f.payload) != 2 || NodeID(f.payload[0]) != f.from || int(f.payload[1])%3 != int(f.from) {
				t.Fatalf("node %d: frame from %d carries %v", to, f.from, f.payload)
			}
		}
	}
}

type discard struct{}

func (discard) ReceiveFrame(NodeID, []byte) {}

// BenchmarkDeliver is one successful transmission fanned out to three
// receivers, each delivery an event. Steady state allocates nothing.
func BenchmarkDeliver(b *testing.B) {
	s := sim.New(1)
	ch := NewChannel(s, lossless())
	for id := 0; id < 4; id++ {
		ch.Attach(NodeID(id), discard{})
	}
	frame := make([]byte, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.deliver(ch.stations[0], frame, s.Now(), s.Now())
		s.Run()
	}
	if got := ch.Stats().Frames; got != 3*uint64(b.N) {
		b.Fatalf("delivered %d frames, want %d", got, 3*b.N)
	}
}

// TestContendedBroadcastAllocatesOnlyTheCopy: three stations that keep
// their queues full contend, collide and transmit, and in the steady state
// the only allocation is Broadcast's copy of each frame. A transmit queue
// keeps its capacity as it drains (txDone slides it down instead of
// re-slicing it from the front), and a collision's completion is a bound
// method, not a fresh closure.
func TestContendedBroadcastAllocatesOnlyTheCopy(t *testing.T) {
	s := sim.New(3)
	ch := NewChannel(s, lossless())
	var st [3]*Station
	for i := range st {
		st[i] = ch.Attach(NodeID(i), discard{})
	}
	frame := make([]byte, 60)
	round := func() {
		for i := 0; i < 12; i++ {
			st[i%3].Broadcast(frame)
		}
		s.Run()
	}
	round()
	round()
	before := ch.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, round)
	after := ch.Stats()
	if after.Collisions == before.Collisions {
		t.Fatal("no collision in the measured rounds: the test does not reach collisionDone")
	}
	if got := after.Accesses - before.Accesses; got != 12*(runs+1) {
		t.Fatalf("%d frames transmitted, want %d", got, 12*(runs+1))
	}
	if allocs != 12 {
		t.Fatalf("%v allocations per round of 12 frames, want 12", allocs)
	}
}

// source is a Source that, at each win, queues perBuild two-byte frames —
// the build's number, then the frame's index in it — each to go out hold
// after the win, for as long as it has builds left. A burst source queues
// each build as one packet: the first frame at an access of its own, the
// rest to follow it.
type source struct {
	st       *Station
	sched    *sim.Scheduler
	builds   int
	perBuild int
	hold     time.Duration
	burst    bool
	builtAt  []time.Duration
}

func (f *source) Pending() bool { return f.builds > 0 }

func (f *source) Build() {
	if f.builds == 0 {
		return
	}
	f.builds--
	now := f.sched.Now()
	f.builtAt = append(f.builtAt, now)
	for i := 0; i < f.perBuild; i++ {
		frame := []byte{byte(len(f.builtAt)), byte(i)}
		if f.burst && i > 0 {
			f.st.Follow(frame, 0)
		} else {
			f.st.Queue(frame, now+f.hold)
		}
	}
}

// TestSourceBuildsAtTheWinAndHolds: a pending source contends with nothing
// queued, builds when its backoff ends, and holds the medium from then until
// its frame's not-before time; Held counts exactly those holds and AirTime
// counts them with the airtime.
func TestSourceBuildsAtTheWinAndHolds(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 2, lossless())
	const hold = 300 * time.Millisecond
	src := &source{st: st[0], sched: s, builds: 3, perBuild: 1, hold: hold}
	st[0].SetSource(src)
	s.Run()
	if len(src.builtAt) != 3 || len(sinks[1].frames) != 3 {
		t.Fatalf("%d builds, %d frames heard; want 3 and 3", len(src.builtAt), len(sinks[1].frames))
	}
	cfg := ch.Config()
	air := cfg.Airtime(2)
	for i, at := range src.builtAt {
		if i == 0 && at < cfg.DIFS {
			t.Errorf("first build at %v, before the DIFS of its contention round", at)
		}
		if got, want := sinks[1].frames[i].at, at+hold+air; got != want {
			t.Errorf("frame %d heard at %v, want build %v + hold + airtime = %v", i, got, at, want)
		}
	}
	if got := ch.Stats(); got.Held != 3*hold || got.AirTime != 3*(hold+air) {
		t.Errorf("Held %v, AirTime %v; want %v and %v", got.Held, got.AirTime, 3*hold, 3*(hold+air))
	}
}

// TestCrashDuringHoldKeepsMidAirRule: a station reset while it holds the
// medium it won still sends the frame it won with — the hold is part of the
// transmission — and nothing queued behind it.
func TestCrashDuringHoldKeepsMidAirRule(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 2, lossless())
	src := &source{st: st[0], sched: s, builds: 1, perBuild: 2, hold: time.Second}
	st[0].SetSource(src)
	for len(src.builtAt) == 0 {
		if !s.Step() {
			t.Fatal("the source never won the medium")
		}
	}
	st[0].Reset()
	s.Run()
	if len(sinks[1].frames) != 1 {
		t.Fatalf("%d frames heard after a reset during the hold, want the one that had won", len(sinks[1].frames))
	}
	if want := src.builtAt[0] + time.Second + ch.Config().Airtime(2); sinks[1].frames[0].at != want {
		t.Errorf("frame heard at %v, want %v: after its hold", sinks[1].frames[0].at, want)
	}
	if n := len(st[0].st.queue); n != 0 || ch.Stats().Accesses != 1 {
		t.Errorf("%d frames still queued, %d accesses; want 0 and 1", n, ch.Stats().Accesses)
	}
}

// heardFrom returns the frames sink heard from station from, in order.
func heardFrom(sk *sink, from NodeID) (out []int) {
	for i, f := range sk.frames {
		if f.from == from {
			out = append(out, i)
		}
	}
	return out
}

// TestPacketIsOneAccess: the three frames of one packet take one contention
// round. The first goes out after its hold; each of the others SlotTime
// after the one before it ends, with no hold. Accesses counts the burst
// once, AirTime counts the gaps, and Held does not.
func TestPacketIsOneAccess(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 2, lossless())
	const hold = 200 * time.Millisecond
	src := &source{st: st[0], sched: s, builds: 1, perBuild: 3, hold: hold, burst: true}
	st[0].SetSource(src)
	s.Run()
	got := sinks[1].frames
	if len(got) != 3 {
		t.Fatalf("%d frames heard, want 3", len(got))
	}
	cfg := ch.Config()
	air := cfg.Airtime(2)
	if want := src.builtAt[0] + hold + air; got[0].at != want {
		t.Errorf("first frame heard at %v, want build + hold + airtime = %v", got[0].at, want)
	}
	for k := 1; k < 3; k++ {
		if gap := got[k].at - got[k-1].at; gap != cfg.SlotTime+air {
			t.Errorf("frame %d ended %v after frame %d, want SlotTime + airtime = %v", k, gap, k-1, cfg.SlotTime+air)
		}
		if got[k].payload[0] != 1 || int(got[k].payload[1]) != k {
			t.Errorf("frame %d carries %v, want build 1, index %d", k, got[k].payload, k)
		}
	}
	stats := ch.Stats()
	if stats.Accesses != 1 || stats.Collisions != 0 {
		t.Errorf("%d accesses and %d collisions, want 1 and 0", stats.Accesses, stats.Collisions)
	}
	if want := hold + 3*air + 2*cfg.SlotTime; stats.AirTime != want {
		t.Errorf("AirTime %v, want hold + 3 airtimes + 2 gaps = %v", stats.AirTime, want)
	}
	if stats.Held != hold {
		t.Errorf("Held %v, want the one hold %v", stats.Held, hold)
	}
}

// TestFollowerWaitsForItsNotBefore: a frame that follows another but may
// not start until well after that one ends — the first of a second packet
// whose signature completes late — starts at its not-before, not SlotTime
// after the frame before it. The medium stays the burst's: the wait is
// held, and the burst is still one access.
func TestFollowerWaitsForItsNotBefore(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 2, lossless())
	cfg := ch.Config()
	air := cfg.Airtime(2)
	const late = 2 * time.Second
	st[0].Queue([]byte{1, 0}, 0)
	st[0].Follow([]byte{2, 0}, late)
	st[0].Kick()
	s.Run()
	got := sinks[1].frames
	if len(got) != 2 {
		t.Fatalf("%d frames heard, want 2", len(got))
	}
	if got[0].at >= late {
		t.Fatalf("first frame ended at %v, not before the follower's not-before %v: the test shows nothing", got[0].at, late)
	}
	if want := late + air; got[1].at != want {
		t.Errorf("follower heard at %v, want not-before + airtime = %v", got[1].at, want)
	}
	stats := ch.Stats()
	if stats.Accesses != 1 {
		t.Errorf("%d accesses, want the burst's one", stats.Accesses)
	}
	if want := late - (got[0].at + cfg.SlotTime); stats.Held != want {
		t.Errorf("Held %v, want the follower's wait past the SlotTime gap, %v", stats.Held, want)
	}
	if want := got[1].at - (got[0].at - air); stats.AirTime != want {
		t.Errorf("AirTime %v, want the whole burst from its win, %v", stats.AirTime, want)
	}
}

// TestNoContenderInsideABurst: a station with frames queued contends
// against a bursting one and never gets the medium between the burst's
// frames: the gap is SlotTime, shorter than the DIFS a contention round
// starts with.
func TestNoContenderInsideABurst(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 3, lossless())
	src := &source{st: st[0], sched: s, builds: 4, perBuild: 3, burst: true}
	st[0].SetSource(src)
	for i := 0; i < 8; i++ {
		st[1].Broadcast([]byte{0xff, byte(i)})
	}
	s.Run()
	idx := heardFrom(sinks[2], 0)
	if len(idx) != 12 {
		t.Fatalf("%d of station 0's frames heard, want 12", len(idx))
	}
	for b := 0; b < 4; b++ {
		first := idx[3*b]
		for k := 1; k < 3; k++ {
			if idx[3*b+k] != first+k {
				t.Fatalf("packet %d: another station's frame was heard between its fragments", b+1)
			}
		}
	}
	if got := ch.Stats().Accesses; got != 4+8 {
		t.Errorf("%d accesses, want 4 bursts + 8 single frames", got)
	}
}

// TestCollidedBurstRecontends: two packets whose first frames collide —
// a one-slot contention window makes the first round a tie — stay queued
// as built, re-contend, and then each goes out as one burst.
func TestCollidedBurstRecontends(t *testing.T) {
	cfg := lossless()
	cfg.CWMin = 1
	s, ch, st, sinks := newTestChannel(t, 3, cfg)
	a := &source{st: st[0], sched: s, builds: 1, perBuild: 3, burst: true}
	b := &source{st: st[1], sched: s, builds: 1, perBuild: 3, burst: true}
	st[0].SetSource(a)
	st[1].SetSource(b)
	s.Run()
	stats := ch.Stats()
	if stats.Collisions == 0 {
		t.Fatal("no collision: the test does not reach a collided burst")
	}
	if stats.Accesses != 2 || len(a.builtAt) != 1 || len(b.builtAt) != 1 {
		t.Fatalf("%d accesses, %d and %d builds; want 2, 1 and 1", stats.Accesses, len(a.builtAt), len(b.builtAt))
	}
	for from := NodeID(0); from < 2; from++ {
		idx := heardFrom(sinks[2], from)
		if len(idx) != 3 || idx[1] != idx[0]+1 || idx[2] != idx[0]+2 {
			t.Errorf("station %d's frames heard at positions %v, want three in a row", from, idx)
		}
	}
}

// TestCrashMidBurstKeepsMidAirRule: a station reset while a fragment of its
// burst is on the air finishes that fragment and sends nothing behind it;
// back up, its next packet goes out whole and in order.
func TestCrashMidBurstKeepsMidAirRule(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 2, lossless())
	src := &source{st: st[0], sched: s, builds: 1, perBuild: 3, burst: true}
	st[0].SetSource(src)
	for len(sinks[1].frames) == 0 {
		if !s.Step() {
			t.Fatal("the first fragment never arrived")
		}
	}
	s.RunFor(ch.Config().SlotTime + time.Millisecond) // into the second fragment
	st[0].Reset()
	s.Run()
	if got := len(sinks[1].frames); got != 2 {
		t.Fatalf("%d fragments heard after a reset during the second, want 2", got)
	}
	if n := len(st[0].st.queue); n != 0 {
		t.Errorf("%d frames still queued after the reset", n)
	}
	src.builds = 1
	st[0].Kick()
	s.Run()
	got := sinks[1].frames[2:]
	if len(got) != 3 {
		t.Fatalf("%d frames of the next packet heard, want 3", len(got))
	}
	for k, f := range got {
		if f.payload[0] != 2 || int(f.payload[1]) != k {
			t.Errorf("frame %d of the next packet carries %v, want build 2, index %d", k, f.payload, k)
		}
	}
	if n := ch.Stats().Accesses; n != 2 {
		t.Errorf("%d accesses, want one per packet", n)
	}
}

// TestQueuedFramesContendSeparately: frames queued with Queue — the
// baseline's per-intent packets — each take an access of their own: every
// one after the first waits out a DIFS and a backoff.
func TestQueuedFramesContendSeparately(t *testing.T) {
	s, ch, st, sinks := newTestChannel(t, 2, lossless())
	src := &source{st: st[0], sched: s, builds: 1, perBuild: 3}
	st[0].SetSource(src)
	s.Run()
	got := sinks[1].frames
	if len(got) != 3 {
		t.Fatalf("%d frames heard, want 3", len(got))
	}
	cfg := ch.Config()
	for k := 1; k < 3; k++ {
		if gap := got[k].at - got[k-1].at - cfg.Airtime(2); gap < cfg.DIFS {
			t.Errorf("frame %d started %v after frame %d ended, want a DIFS at least", k, gap, k-1)
		}
	}
	if n := ch.Stats().Accesses; n != 3 {
		t.Errorf("%d accesses, want 3", n)
	}
}
