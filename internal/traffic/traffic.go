// Package traffic is the client workload layer: deterministic generators
// of transaction arrival processes, driven off the internal/sim scheduler.
// Every process here is open-loop — it offers load at its own pace and
// never waits for a commit — and every chain run feeds its clients through
// exactly one Gen.
//
// The fixed process (NewFixed) is the default workload: one arrival every
// constant gap, no randomness at all — one load point, at the run
// package's default gap a constant overload sized so the mempool can
// always fill the next proposal. The seed-derived processes (New) model a
// population of simulated clients at a configurable offered rate, which
// is what exposes saturation behavior: throughput plateaus at
// capacity, latency percentiles climb with the backlog, and mempool
// admission control (protocol.MempoolConfig.MaxPendingBytes) starts
// rejecting what the chain cannot absorb. Two of them cover the load
// shapes a wireless deployment faces: Poisson (memoryless aggregate
// arrivals, the superposition of the whole client population) and OnOff
// (bursty Markov-modulated arrivals: each client alternates exponential ON
// bursts and OFF silences, emitting only while ON, so the instantaneous
// rate swings far above and below the long-run average). Both are pure
// functions of the seed: the same seed reproduces the same arrival times
// bit-for-bit, which the BENCH golden tests rely on.
package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Kind names an arrival process.
type Kind string

// The arrival-process vocabulary.
const (
	// Poisson is memoryless aggregate arrivals at Rate tx/s: the
	// superposition of the client population's independent Poisson
	// processes, generated exactly as one exponential inter-arrival
	// stream at the aggregate rate (superposition of Poisson processes
	// is Poisson with the summed rate, so the population size does not
	// change the process — only the story).
	Poisson Kind = "poisson"
	// OnOff is the bursty pattern: every client alternates exponential ON
	// bursts (mean OnMean) and OFF silences (mean OffMean), emitting
	// Poisson arrivals only while ON, scaled so the time-averaged
	// aggregate stays Rate tx/s. With OffMean >> OnMean the load arrives
	// in synchronized-looking clumps whenever several clients burst at
	// once — the tail-latency stressor Poisson hides.
	OnOff Kind = "onoff"
)

// Pattern describes one seed-derived arrival process. The zero value is
// disabled: the run's clients follow the fixed process instead.
type Pattern struct {
	Kind Kind
	// Clients is the simulated client population size (on-off state
	// machines; the Poisson aggregate is population-invariant).
	Clients int
	// Rate is the aggregate offered load in transactions per second,
	// time-averaged across the whole population.
	Rate float64
	// OnMean and OffMean are the mean per-client burst and silence
	// lengths (on-off only).
	OnMean  time.Duration
	OffMean time.Duration
}

// Enabled reports whether the pattern selects a seed-derived process.
func (p Pattern) Enabled() bool { return p.Kind != "" }

// WithDefaults fills zero-valued tuning fields: 1000 clients, 2 min
// bursts, 8 min silences (a 20% duty factor, so on-off bursts run at 5x
// the average rate).
func (p Pattern) WithDefaults() Pattern {
	if !p.Enabled() {
		return p
	}
	if p.Clients <= 0 {
		p.Clients = 1000
	}
	if p.OnMean <= 0 {
		p.OnMean = 2 * time.Minute
	}
	if p.OffMean <= 0 {
		p.OffMean = 8 * time.Minute
	}
	return p
}

// Validate rejects malformed patterns. The zero (disabled) pattern is
// valid.
func (p Pattern) Validate() error {
	switch p.Kind {
	case "":
		return nil
	case Poisson, OnOff:
	default:
		return fmt.Errorf("traffic: unknown arrival kind %q (have %q, %q)", p.Kind, Poisson, OnOff)
	}
	if p.Rate <= 0 {
		return fmt.Errorf("traffic: arrival rate must be positive, got %g tx/s", p.Rate)
	}
	return nil
}

// Gen drives one arrival process on a scheduler. Each arrival invokes the
// submit callback with its global sequence number (monotonic from 0, the
// provenance contract protocol.MakeClientTx expects); the first false
// return stops the generator for good.
type Gen struct {
	sched  *sim.Scheduler
	rng    *rand.Rand    // nil for the fixed process
	pat    Pattern       // disabled for the fixed process
	gap    time.Duration // the fixed process's inter-arrival gap
	submit func(seq int) bool
	seq    int
	done   bool
}

// fixedFirst is the fixed process's first arrival: just after the run
// starts, so the first proposals already find client traffic pooled.
const fixedFirst = 100 * time.Millisecond

// New builds a generator for a validated pattern. Its randomness is
// derived from the run seed (not the scheduler's RNG), so the arrival
// process is independent of protocol-side draw order.
func New(sched *sim.Scheduler, p Pattern, seed int64, submit func(seq int) bool) *Gen {
	return &Gen{
		sched:  sched,
		rng:    rand.New(rand.NewSource(seed ^ 0x7aff1c)),
		pat:    p.WithDefaults(),
		submit: submit,
	}
}

// NewFixed builds the deterministic constant-gap process: the first
// arrival 100 ms in, then one every gap. It holds no RNG and draws from
// none, so it perturbs nothing else in the run.
func NewFixed(sched *sim.Scheduler, gap time.Duration, submit func(seq int) bool) *Gen {
	if gap <= 0 {
		panic("traffic: the fixed process needs a positive gap") // would never advance virtual time
	}
	return &Gen{sched: sched, gap: gap, submit: submit}
}

// Start arms the arrival process. The fixed process and Poisson schedule
// one stream; on-off spawns one state machine per client.
func (g *Gen) Start() {
	switch {
	case g.gap > 0:
		g.sched.PostAfter(fixedFirst, g.arrive)
	case g.pat.Kind == Poisson:
		g.sched.PostAfter(g.expGap(g.pat.Rate), g.arrive)
	case g.pat.Kind == OnOff:
		// Scale the per-client ON rate so the population's time average
		// is Rate: each client is ON for OnMean/(OnMean+OffMean) of the
		// time.
		onFrac := float64(g.pat.OnMean) / float64(g.pat.OnMean+g.pat.OffMean)
		lambda := g.pat.Rate / float64(g.pat.Clients) / onFrac
		for i := 0; i < g.pat.Clients; i++ {
			g.startClient(lambda)
		}
	}
}

// Submitted returns how many arrivals have been offered so far.
func (g *Gen) Submitted() int { return g.seq }

// emit offers one arrival; false means the run refused it and the
// generator is done.
func (g *Gen) emit() bool {
	if g.done {
		return false
	}
	if !g.submit(g.seq) {
		g.done = true
		return false
	}
	g.seq++
	return true
}

// arrive is the single-stream processes' arrival: offer it, then schedule
// the next one a constant (fixed) or exponential (Poisson) gap away.
func (g *Gen) arrive() {
	if !g.emit() {
		return
	}
	gap := g.gap
	if gap == 0 {
		gap = g.expGap(g.pat.Rate)
	}
	g.sched.PostAfter(gap, g.arrive)
}

// startClient runs one on-off state machine: an OFF silence, then an ON
// burst emitting Poisson arrivals at lambda, repeating. The initial
// silence doubles as phase desynchronization — clients do not all burst
// at t=0.
func (g *Gen) startClient(lambda float64) {
	var burst func()
	var onUntil time.Duration
	// gen invalidates a burst's leftover arrival chain: an arrival drawn
	// past the burst's end must not leak into the next burst.
	var gen int
	var schedArrive func(gap time.Duration)
	schedArrive = func(gap time.Duration) {
		myGen := gen
		g.sched.PostAfter(gap, func() {
			if g.done || myGen != gen || g.sched.Now() >= onUntil {
				return
			}
			if !g.emit() {
				return
			}
			schedArrive(g.expGap(lambda))
		})
	}
	burst = func() {
		if g.done {
			return
		}
		gen++
		on := g.expMean(g.pat.OnMean)
		onUntil = g.sched.Now() + on
		schedArrive(g.expGap(lambda))
		g.sched.PostAfter(on+g.expMean(g.pat.OffMean), burst)
	}
	g.sched.PostAfter(g.expMean(g.pat.OffMean), burst)
}

// expGap draws an exponential inter-arrival gap for rate events/s.
func (g *Gen) expGap(rate float64) time.Duration {
	return time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
}

// expMean draws an exponential duration with the given mean.
func (g *Gen) expMean(mean time.Duration) time.Duration {
	return time.Duration(g.rng.ExpFloat64() * float64(mean))
}
