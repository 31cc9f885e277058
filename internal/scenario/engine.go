package scenario

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/wireless"
)

// Lifecycle is the driver-side interface the engine drives crash,
// recovery and byz events through. Implementations must be idempotent:
// crashing a dead node or recovering a live one is a no-op. NodeCount
// sizes the deployment for churn events, which draw their victims
// uniformly. SetByzantine arms the named active-Byzantine behavior on a
// node; drivers validate behavior names before the run, so
// implementations may treat them as trusted.
type Lifecycle interface {
	NodeCount() int
	CrashNode(i int)
	RecoverNode(i int)
	SetByzantine(i int, behavior string)
}

// mobilityField is the fixed field edge (metres) mobility events walk
// nodes across; the DSL parameterizes speed and radio range instead.
const mobilityField = 1000.0

// mobilityEdgeLoss is the loss probability a pair sees at the very edge
// of radio range; loss inside the range grades quadratically down to
// zero at distance zero.
const mobilityEdgeLoss = 0.5

// Engine compiles one Plan onto a running simulation: timed events fire on
// the scheduler, network effects apply through delivery hooks installed on
// one or more channels, and crash/recovery flows through the Lifecycle.
// All randomness (loss draws, delay draws) comes from a generator derived
// from the run seed, so different seeds see different adversary behaviour
// and identical seeds reproduce exactly.
type Engine struct {
	sched *sim.Scheduler
	rng   *rand.Rand
	life  Lifecycle

	group     map[int]int // node -> partition group; nil = healed
	lossProb  float64
	lossGen   int // invalidates a burst's scheduled clear when superseded
	delayProb float64
	delayMax  time.Duration
	delayGen  int

	mob      *wireless.Waypoint // nil = no mobility window active
	mobRange float64
	mobGen   int

	dutyFrac   float64 // 0 = no duty-cycle window active
	dutyPeriod time.Duration
	dutyStart  time.Duration
	dutyGen    int

	churned map[int]bool // nodes currently down to churn (no double-crash)
}

// Start schedules a plan's events on the scheduler and returns the engine.
// life may be nil when the plan contains no crash, recover or byz events
// (or when the caller only wants the delivery-level effects). Install the
// returned engine's Hook on every channel the scenario should affect.
func Start(sched *sim.Scheduler, plan Plan, seed int64, life Lifecycle) *Engine {
	e := &Engine{
		sched: sched,
		// Derived from the run seed (not a constant): different seeds must
		// see different adversary randomness.
		rng:     rand.New(rand.NewSource(seed ^ 0x05CEA210)),
		life:    life,
		churned: make(map[int]bool),
	}
	for _, ev := range plan.sorted() {
		ev := ev
		switch ev.Kind {
		case KindCrash:
			sched.Post(ev.At, func() {
				if e.life != nil {
					e.life.CrashNode(ev.Node)
				}
			})
		case KindRecover:
			sched.Post(ev.At, func() {
				if e.life != nil {
					e.life.RecoverNode(ev.Node)
				}
			})
		case KindByz:
			sched.Post(ev.At, func() {
				if e.life != nil {
					e.life.SetByzantine(ev.Node, ev.Behavior)
				}
			})
		case KindPartition:
			sched.Post(ev.At, func() {
				e.group = make(map[int]int)
				for g, ids := range ev.Groups {
					for _, nd := range ids {
						e.group[nd] = g
					}
				}
			})
		case KindHeal:
			sched.Post(ev.At, func() { e.group = nil })
		case KindLoss, KindJam:
			e.window(ev, &e.lossGen, func() { e.lossProb = ev.Prob }, func() { e.lossProb = 0 })
		case KindDelay:
			e.window(ev, &e.delayGen,
				func() { e.delayProb, e.delayMax = ev.Prob, ev.Max },
				func() { e.delayProb, e.delayMax = 0, 0 })
		case KindMobility:
			e.window(ev, &e.mobGen, func() {
				e.mob = wireless.NewWaypoint(mobilityField, ev.Speed, e.rng.Int63())
				e.mobRange = ev.Range
			}, func() { e.mob, e.mobRange = nil, 0 })
		case KindDutyCycle:
			e.window(ev, &e.dutyGen,
				func() { e.dutyFrac, e.dutyPeriod, e.dutyStart = ev.Prob, ev.Period, sched.Now() },
				func() { e.dutyFrac, e.dutyPeriod = 0, 0 })
		case KindChurn:
			until := time.Duration(0) // 0 = whole run
			if ev.Duration > 0 {
				until = ev.At + ev.Duration
			}
			var tick func()
			tick = func() {
				if until > 0 && sched.Now() >= until {
					return
				}
				victim := e.rng.Intn(e.life.NodeCount())
				if !e.churned[victim] {
					e.churned[victim] = true
					e.life.CrashNode(victim)
					sched.PostAfter(ev.Downtime, func() {
						delete(e.churned, victim)
						e.life.RecoverNode(victim)
					})
				}
				sched.PostAfter(ev.Period, tick)
			}
			sched.Post(ev.At+ev.Period, tick)
		}
	}
	return e
}

// window applies a timed effect: set at ev.At and, for a bounded event,
// clear ev.Duration later — unless a later event of the same effect has
// set it again meanwhile, which gen (the effect's count of sets) tells.
func (e *Engine) window(ev Event, gen *int, set, clear func()) {
	e.sched.Post(ev.At, func() {
		set()
		*gen++
		mine := *gen
		if ev.Duration > 0 {
			e.sched.Post(ev.At+ev.Duration, func() {
				if *gen == mine {
					clear()
				}
			})
		}
	})
}

// HookMapped returns a delivery hook for a channel whose station IDs must
// first be translated into scenario node indices (multihop clusters attach
// stations 0..N_i-1 on every cluster channel; the driver maps them to flat
// node indices).
func (e *Engine) HookMapped(mapID func(wireless.NodeID) int) wireless.DeliveryHook {
	return func(from, to wireless.NodeID, _ []byte) (time.Duration, bool) {
		return e.apply(mapID(from), mapID(to), true)
	}
}

// HookNetOnly returns a hook that applies only the network-level effects
// (loss bursts, jamming, the delay adversary) and ignores the effects
// keyed by scenario node id (partitions, mobility, duty-cycling) — used
// for tiers whose station IDs do not live in the scenario's node-id
// space, like the multihop global channel.
func (e *Engine) HookNetOnly() wireless.DeliveryHook {
	return func(from, to wireless.NodeID, _ []byte) (time.Duration, bool) {
		return e.apply(int(from), int(to), false)
	}
}

// apply evaluates the current network state for one delivery. nodeSpace
// reports whether from/to are scenario node ids; the id-keyed effects
// (partitions, duty-cycle sleep, mobility range) only fire when they are.
func (e *Engine) apply(from, to int, nodeSpace bool) (time.Duration, bool) {
	if nodeSpace && e.group != nil {
		gf, okf := e.group[from]
		gt, okt := e.group[to]
		if !okf || !okt || gf != gt {
			return 0, true
		}
	}
	if nodeSpace && e.dutyFrac > 0 && e.dutyPeriod > 0 {
		if e.asleep(from) || e.asleep(to) {
			return 0, true
		}
	}
	if nodeSpace && e.mob != nil {
		d := e.mob.Dist(from, to, e.sched.Now())
		if d >= e.mobRange {
			return 0, true // out of radio range
		}
		// Inside range, loss grades quadratically with distance: near
		// pairs are clean, edge-of-range pairs lossy.
		frac := d / e.mobRange
		if e.rng.Float64() < frac*frac*mobilityEdgeLoss {
			return 0, true
		}
	}
	if e.lossProb > 0 && e.rng.Float64() < e.lossProb {
		return 0, true
	}
	if e.delayProb > 0 && e.delayMax > 0 && e.rng.Float64() < e.delayProb {
		return time.Duration(e.rng.Int63n(int64(e.delayMax))), false
	}
	return 0, false
}

// asleep reports whether a node's radio is in the off part of its duty
// cycle. Per-node phases are staggered by the golden ratio so awake
// windows interleave instead of the whole network sleeping in lockstep.
func (e *Engine) asleep(nd int) bool {
	phase := time.Duration(float64(e.dutyPeriod) * goldenFrac(nd))
	into := (e.sched.Now() - e.dutyStart + phase) % e.dutyPeriod
	return into >= time.Duration(float64(e.dutyPeriod)*e.dutyFrac)
}

// goldenFrac returns frac(i * golden ratio), the low-discrepancy phase
// offset for node i.
func goldenFrac(i int) float64 {
	_, f := math.Modf(float64(i) * 0.6180339887498949)
	return f
}
