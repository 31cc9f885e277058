package scenario

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wireless"
)

type recorder struct {
	crashes, recovers []struct {
		node int
		at   time.Duration
	}
	byzed []struct {
		node     int
		behavior string
	}
	sched *sim.Scheduler
}

func (r *recorder) CrashNode(i int) {
	r.crashes = append(r.crashes, struct {
		node int
		at   time.Duration
	}{i, r.sched.Now()})
}

func (r *recorder) RecoverNode(i int) {
	r.recovers = append(r.recovers, struct {
		node int
		at   time.Duration
	}{i, r.sched.Now()})
}

func (r *recorder) SetByzantine(i int, behavior string) {
	r.byzed = append(r.byzed, struct {
		node     int
		behavior string
	}{i, behavior})
}

// singleHopHook is the delivery hook of a channel whose station IDs are
// the scenario's node indices.
func singleHopHook(e *Engine) wireless.DeliveryHook {
	return e.HookMapped(func(id wireless.NodeID) int { return int(id) })
}

func TestEngineFiresLifecycleEvents(t *testing.T) {
	sched := sim.New(1)
	rec := &recorder{sched: sched}
	plan := Plan{}.Then(CrashAt(time.Minute, 2), RecoverAt(3*time.Minute, 2))
	Start(sched, plan, 1, rec)
	sched.Run()
	if len(rec.crashes) != 1 || rec.crashes[0].node != 2 || rec.crashes[0].at != time.Minute {
		t.Fatalf("crashes = %+v", rec.crashes)
	}
	if len(rec.recovers) != 1 || rec.recovers[0].node != 2 || rec.recovers[0].at != 3*time.Minute {
		t.Fatalf("recovers = %+v", rec.recovers)
	}
}

func TestEngineFiresByzEvents(t *testing.T) {
	sched := sim.New(1)
	rec := &recorder{sched: sched}
	Start(sched, Plan{}.Then(ByzAt(2*time.Minute, 3, "equivocate")), 1, rec)
	sched.Run()
	if len(rec.byzed) != 1 || rec.byzed[0].node != 3 || rec.byzed[0].behavior != "equivocate" {
		t.Fatalf("byzed = %+v", rec.byzed)
	}
}

func TestByzNodes(t *testing.T) {
	p := Plan{}.Then(
		ByzAt(0, 3, "garbage"),
		ByzAt(30*time.Minute, 1, "withhold"),
		CrashAt(time.Minute, 2),
	)
	b := p.ByzNodes()
	if len(b) != 2 || !b[3] || !b[1] {
		t.Fatalf("ByzNodes = %v, want {1, 3}", b)
	}
	if got := Byz("flipvotes", 0, 2).ByzNodes(); len(got) != 2 || !got[0] || !got[2] {
		t.Fatalf("Byz plan nodes = %v", got)
	}
}

func TestEnginePartitionAndHeal(t *testing.T) {
	sched := sim.New(1)
	eng := Start(sched, Plan{}.Then(
		PartitionAt(time.Minute, []int{0, 1}, []int{2, 3}),
		HealAt(2*time.Minute),
	), 1, nil)
	hook := singleHopHook(eng)
	drop := func(from, to wireless.NodeID) bool {
		_, d := hook(from, to, nil)
		return d
	}
	if drop(0, 3) {
		t.Error("dropped before partition")
	}
	sched.RunUntil(time.Minute)
	if !drop(0, 3) || !drop(3, 0) {
		t.Error("cross-group delivery survived the partition")
	}
	if drop(0, 1) || drop(2, 3) {
		t.Error("intra-group delivery dropped")
	}
	if !drop(0, 7) {
		t.Error("node outside every group reachable during partition")
	}
	sched.RunUntil(2 * time.Minute)
	if drop(0, 3) {
		t.Error("dropped after heal")
	}
}

func TestEngineJamWindowAndDelay(t *testing.T) {
	sched := sim.New(1)
	eng := Start(sched, Plan{}.Then(
		JamAt(time.Minute, 30*time.Second),
		DelayFrom(10*time.Minute, 1.0, 5*time.Second, 0),
	), 7, nil)
	hook := singleHopHook(eng)
	sched.RunUntil(time.Minute)
	if _, drop := hook(0, 1, nil); !drop {
		t.Error("jam window not dropping")
	}
	sched.RunUntil(time.Minute + 31*time.Second)
	if _, drop := hook(0, 1, nil); drop {
		t.Error("jam persisted past its window")
	}
	sched.RunUntil(10 * time.Minute)
	for i := 0; i < 32; i++ {
		extra, drop := hook(0, 1, nil)
		if drop {
			t.Fatal("delay adversary dropped a frame")
		}
		if extra < 0 || extra >= 5*time.Second {
			t.Fatalf("delay %v outside [0, 5s)", extra)
		}
	}
}

func TestEngineSeedVariesAdversary(t *testing.T) {
	sample := func(seed int64) []time.Duration {
		sched := sim.New(1)
		eng := Start(sched, Delay(1.0, time.Minute), seed, nil)
		hook := singleHopHook(eng)
		sched.RunUntil(time.Second)
		var out []time.Duration
		for i := 0; i < 8; i++ {
			extra, _ := hook(0, 1, nil)
			out = append(out, extra)
		}
		return out
	}
	a, b, a2 := sample(1), sample(2), sample(1)
	same := true
	for i := range a {
		if a[i] != a2[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], a2[i])
		}
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical delay pattern (constant-seed bug)")
	}
}

func TestEngineDutyCycleSleepWindows(t *testing.T) {
	sched := sim.New(1)
	eng := Start(sched, Plan{}.Then(
		DutyCycleFrom(0, 2*time.Minute, 0.5, time.Minute),
	), 1, nil)
	hook := singleHopHook(eng)
	// Node 0 has phase offset 0: awake for the first 30s of each minute.
	sched.RunUntil(10 * time.Second)
	if _, drop := hook(0, 0, nil); drop {
		t.Error("node 0 asleep inside its awake window")
	}
	sched.RunUntil(40 * time.Second)
	if _, drop := hook(0, 0, nil); !drop {
		t.Error("node 0 awake inside its sleep window")
	}
	// Phases are staggered: at any instant some pair must differ.
	differ := false
	for nd := wireless.NodeID(1); nd < 8; nd++ {
		_, d0 := hook(0, 0, nil)
		_, dn := hook(nd, nd, nil)
		if d0 != dn {
			differ = true
		}
	}
	if !differ {
		t.Error("every node shares node 0's sleep schedule (no phase stagger)")
	}
	// The window ends: everyone is reachable again.
	sched.RunUntil(2*time.Minute + 40*time.Second)
	if _, drop := hook(0, 0, nil); drop {
		t.Error("duty cycle persisted past its window")
	}
}

func TestEngineMobilityRangeAndWindow(t *testing.T) {
	sched := sim.New(1)
	// Tiny radio range: on a 1 km field nearly every pair is out of range,
	// so deliveries drop while the window is active.
	eng := Start(sched, Plan{}.Then(
		MobilityFrom(time.Minute, time.Hour, 20, 1),
	), 1, nil)
	hook := singleHopHook(eng)
	if _, drop := hook(0, 1, nil); drop {
		t.Error("dropped before the mobility window")
	}
	sched.RunUntil(2 * time.Minute)
	if _, drop := hook(0, 1, nil); !drop {
		t.Error("1 m radio range let a delivery through")
	}
	if _, drop := hook(2, 2, nil); drop {
		t.Error("self-delivery dropped (distance 0 must always pass)")
	}
	sched.RunUntil(time.Minute + 2*time.Hour)
	if _, drop := hook(0, 1, nil); drop {
		t.Error("mobility persisted past its window")
	}
}

// TestEngineOverlappingWindowsOutlastTheFirst: for every timed effect, a
// second window that opens before the first one ends stays in force when
// the first one expires, and ends on its own schedule.
func TestEngineOverlappingWindowsOutlastTheFirst(t *testing.T) {
	dropped := func(hook wireless.DeliveryHook) bool {
		_, drop := hook(0, 1, nil)
		return drop
	}
	for _, tc := range []struct {
		name   string
		window func(at, dur time.Duration) Event
		active func(hook wireless.DeliveryHook) bool
	}{
		{"loss", func(at, dur time.Duration) Event { return LossBurst(at, dur, 1) }, dropped},
		{"jam", JamAt, dropped},
		{"delay", func(at, dur time.Duration) Event { return DelayFrom(at, 1, time.Hour, dur) },
			func(hook wireless.DeliveryHook) bool {
				extra, drop := hook(0, 1, nil)
				return !drop && extra > 0
			}},
		// A 1 m radio range on the 1 km field leaves the pair out of range.
		{"mobility", func(at, dur time.Duration) Event { return MobilityFrom(at, dur, 20, 1) }, dropped},
		// Node 0 is awake for the first 1 % of each hour after a window opens.
		{"dutycycle", func(at, dur time.Duration) Event { return DutyCycleFrom(at, dur, 0.01, time.Hour) }, dropped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.New(1)
			eng := Start(sched, Plan{}.Then(
				tc.window(0, 10*time.Minute),
				tc.window(5*time.Minute, 10*time.Minute),
			), 1, nil)
			hook := singleHopHook(eng)
			for _, step := range []struct {
				at     time.Duration
				active bool
			}{{2 * time.Minute, true}, {12 * time.Minute, true}, {16 * time.Minute, false}} {
				sched.RunUntil(step.at)
				if got := tc.active(hook); got != step.active {
					t.Errorf("at %v: active = %v, want %v", step.at, got, step.active)
				}
			}
		})
	}
}

func (r *recorder) NodeCount() int { return 4 }

func TestEngineChurnCrashesAndRejoins(t *testing.T) {
	sched := sim.New(1)
	rec := &recorder{sched: sched}
	Start(sched, Plan{}.Then(
		ChurnFrom(0, 30*time.Minute, 5*time.Minute, time.Minute),
	), 1, rec)
	sched.Run()
	if len(rec.crashes) == 0 {
		t.Fatal("churn never crashed a node")
	}
	if len(rec.crashes) != len(rec.recovers) {
		t.Fatalf("%d crashes but %d recoveries", len(rec.crashes), len(rec.recovers))
	}
	for i, c := range rec.crashes {
		r := rec.recovers[i]
		if r.node != c.node || r.at != c.at+time.Minute {
			t.Fatalf("crash %+v not matched by recovery %+v", c, r)
		}
		if c.node < 0 || c.node >= 4 {
			t.Fatalf("victim %d outside the deployment", c.node)
		}
	}
}

func TestDownForever(t *testing.T) {
	p := Plan{}.Then(
		CrashAt(0, 3),
		CrashAt(time.Minute, 1),
		RecoverAt(2*time.Minute, 1),
	)
	down := p.DownForever()
	if !down[3] || down[1] || len(down) != 1 {
		t.Fatalf("DownForever = %v, want {3}", down)
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"crash@30m:3",
		"crash@0s:3;recover@55m:3",
		"partition@10m:0,1/2,3;heal@20m",
		"loss@5m+90s:0.5",
		"jam@5m+60s",
		"delay@0s:0.25,10s",
		"delay@1h+30m:0.25,10s",
		"byz@0s:3:equivocate",
		"byz@45m:2:flipvotes;crash@1h:2",
		"mobility@0s+2h:25,800",
		"dutycycle@0s:0.6,90s",
		"churn@10m+2h:20m,5m",
	}
	// Every Kind in the vocabulary must be exercised by a spec above, so
	// a new event type cannot ship without round-trip coverage.
	for _, k := range Kinds() {
		covered := false
		for _, spec := range specs {
			p := MustParse(spec)
			for _, e := range p.Events {
				if e.Kind == k {
					covered = true
				}
			}
		}
		if !covered {
			t.Errorf("Kind %q has no round-trip spec", k)
		}
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q -> %q): %v", spec, p.String(), err)
		}
		if back.String() != p.String() {
			t.Errorf("round trip %q -> %q -> %q", spec, p.String(), back.String())
		}
	}
	if p, err := Parse(""); err != nil || !p.Empty() {
		t.Error("empty spec must parse to the empty plan")
	}
	if p, err := Parse("fault-free"); err != nil || !p.Empty() {
		t.Error("fault-free must parse to the empty plan")
	}
	for _, bad := range []string{"crash@30m", "explode@1m:2", "delay:oops", "partition@1m", "loss@1m:1.5", "byz@0s:3", "byz@0s:x:garbage",
		"mobility@0s:25", "mobility@0s:0,800", "dutycycle@0s:1.5,90s", "dutycycle@0s:0.6,0s", "churn@0s:20m", "churn@0s:0s,5m"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
