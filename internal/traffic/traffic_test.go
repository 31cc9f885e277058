package traffic

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// collect runs a pattern until the virtual horizon and records every
// arrival time.
func collect(t *testing.T, p Pattern, seed int64, horizon time.Duration) []time.Duration {
	t.Helper()
	sched := sim.New(seed)
	var times []time.Duration
	g := New(sched, p, seed, func(seq int) bool {
		if sched.Now() >= horizon {
			return false
		}
		if seq != len(times) {
			t.Fatalf("sequence gap: got seq %d at arrival %d", seq, len(times))
		}
		times = append(times, sched.Now())
		return true
	})
	g.Start()
	sched.RunUntil(horizon)
	if g.Submitted() != len(times) {
		t.Fatalf("Submitted() = %d, recorded %d", g.Submitted(), len(times))
	}
	return times
}

func TestPoissonRate(t *testing.T) {
	horizon := 2000 * time.Second
	times := collect(t, Pattern{Kind: Poisson, Rate: 1}, 7, horizon)
	// ~2000 expected arrivals; 4 sigma is ~180.
	if n := len(times); n < 1800 || n > 2200 {
		t.Fatalf("poisson at 1 tx/s over %v: %d arrivals, want ~2000", horizon, n)
	}
}

func TestOnOffRateAndBurstiness(t *testing.T) {
	p := Pattern{Kind: OnOff, Clients: 50, Rate: 1,
		OnMean: 30 * time.Second, OffMean: 120 * time.Second}
	horizon := 4000 * time.Second
	times := collect(t, p, 3, horizon)
	if n := len(times); n < 3000 || n > 5000 {
		t.Fatalf("onoff at 1 tx/s over %v: %d arrivals, want ~4000", horizon, n)
	}
	// Burstiness: the index of dispersion (var/mean of per-window counts)
	// is 1 for Poisson and must exceed it for Markov-modulated arrivals.
	disp := func(times []time.Duration) float64 {
		window := 10 * time.Second
		counts := make([]float64, int(horizon/window))
		for _, at := range times {
			if i := int(at / window); i < len(counts) {
				counts[i]++
			}
		}
		var sum, sq float64
		for _, c := range counts {
			sum += c
		}
		mean := sum / float64(len(counts))
		for _, c := range counts {
			sq += (c - mean) * (c - mean)
		}
		return sq / float64(len(counts)) / mean
	}
	poisson := collect(t, Pattern{Kind: Poisson, Rate: 1}, 3, horizon)
	dOn, dPo := disp(times), disp(poisson)
	if dOn <= dPo {
		t.Fatalf("onoff dispersion %.2f not above poisson %.2f", dOn, dPo)
	}
}

func TestDeterminism(t *testing.T) {
	for _, p := range []Pattern{
		{Kind: Poisson, Rate: 0.5},
		{Kind: OnOff, Clients: 20, Rate: 0.5, OnMean: time.Minute, OffMean: 4 * time.Minute},
	} {
		a := collect(t, p, 11, 1000*time.Second)
		b := collect(t, p, 11, 1000*time.Second)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d arrivals at same seed", p.Kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d at %v vs %v (same seed)", p.Kind, i, a[i], b[i])
			}
		}
		c := collect(t, p, 12, 1000*time.Second)
		if len(a) == len(c) {
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: seeds 11 and 12 produced identical arrivals", p.Kind)
			}
		}
	}
}

func TestSubmitFalseStopsGenerator(t *testing.T) {
	sched := sim.New(1)
	calls := 0
	g := New(sched, Pattern{Kind: Poisson, Rate: 10}, 1, func(int) bool {
		calls++
		return calls < 5
	})
	g.Start()
	sched.RunUntil(1000 * time.Second)
	if calls != 5 {
		t.Fatalf("submit called %d times after refusal, want exactly 5", calls)
	}
	if g.Submitted() != 4 {
		t.Fatalf("Submitted() = %d after 4 accepted arrivals", g.Submitted())
	}
}

func TestPatternValidate(t *testing.T) {
	if err := (Pattern{}).Validate(); err != nil {
		t.Errorf("zero pattern must validate: %v", err)
	}
	if err := (Pattern{Kind: Poisson, Rate: 0.1}).Validate(); err != nil {
		t.Errorf("poisson: %v", err)
	}
	if err := (Pattern{Kind: "burst", Rate: 1}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (Pattern{Kind: OnOff}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	def := Pattern{Kind: OnOff, Rate: 1}.WithDefaults()
	if def.Clients <= 0 || def.OnMean <= 0 || def.OffMean <= 0 {
		t.Fatalf("WithDefaults left zeros: %+v", def)
	}
	if (Pattern{}).Enabled() || !def.Enabled() {
		t.Error("Enabled wrong")
	}
}

func TestOnOffApproachesConfiguredAverage(t *testing.T) {
	// Long-horizon sanity at a low duty factor: the time-averaged rate
	// must track Rate even though the instantaneous ON rate is 5x it.
	p := Pattern{Kind: OnOff, Clients: 100, Rate: 2,
		OnMean: 20 * time.Second, OffMean: 80 * time.Second}
	horizon := 5000 * time.Second
	n := float64(len(collect(t, p, 9, horizon)))
	want := 2 * horizon.Seconds()
	if math.Abs(n-want)/want > 0.15 {
		t.Fatalf("onoff long-run rate: %v arrivals, want within 15%% of %v", n, want)
	}
}

// TestFixedProcess pins the default client workload: arrivals at exactly
// 100 ms + k×gap with sequence 0,1,2…, a first refusal that ends the
// process for good, and no RNG draw anywhere — the scheduler's stream is
// where an untouched scheduler's is.
func TestFixedProcess(t *testing.T) {
	const gap = 3 * time.Second
	sched, untouched := sim.New(11), sim.New(11)
	var times []time.Duration
	calls := 0
	g := NewFixed(sched, gap, func(seq int) bool {
		calls++
		if seq != len(times) {
			t.Fatalf("sequence gap: got seq %d at arrival %d", seq, len(times))
		}
		if len(times) == 5 {
			return false
		}
		times = append(times, sched.Now())
		return true
	})
	if g.rng != nil {
		t.Fatal("the fixed process holds an RNG")
	}
	g.Start()
	sched.RunUntil(time.Hour)
	for k, at := range times {
		if want := 100*time.Millisecond + time.Duration(k)*gap; at != want {
			t.Errorf("arrival %d at %v, want %v", k, at, want)
		}
	}
	if len(times) != 5 || g.Submitted() != 5 {
		t.Fatalf("%d arrivals recorded, Submitted() = %d, want 5 and 5", len(times), g.Submitted())
	}
	if calls != 6 {
		t.Fatalf("submit called %d times, want 6: the refusal must stop the process for good", calls)
	}
	if sched.Pending() != 0 {
		t.Fatalf("%d events still queued after the refusal", sched.Pending())
	}
	if a, b := sched.Rand().Int63(), untouched.Rand().Int63(); a != b {
		t.Fatal("the fixed process drew from the scheduler's RNG")
	}
}
