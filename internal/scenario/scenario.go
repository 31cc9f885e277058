// Package scenario is the scripted fault-scenario engine: a Plan is an
// ordered set of timed events — node crashes and recoveries, network
// partitions, loss and jamming bursts, the asynchronous delay adversary,
// and active-Byzantine behavior activation — that a driver compiles onto
// the wireless delivery hook and its node lifecycle. One engine drives
// one simulation; its randomness is derived from the run seed, so a
// scenario is as reproducible as the rest of the simulation.
//
// The same Plan runs against every cell of the run.Spec experiment
// matrix (internal/run). Every workload runs on the chain drivers (a
// one-shot run is a depth-1 chain), which rejoin a recovered node mid-run
// through core.Mux.OnUnknownEpoch and NACK retransmission catch-up; the
// clustered driver maps flat node ids onto cluster channels and carries
// byz behaviors onto the global tier.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind names a scripted fault event type.
type Kind string

// The event vocabulary.
const (
	KindCrash     Kind = "crash"     // node goes off the air, paused with all its state
	KindRecover   Kind = "recover"   // node resumes where it stopped
	KindPartition Kind = "partition" // frames cross groups are dropped
	KindHeal      Kind = "heal"      // partition ends
	KindLoss      Kind = "loss"      // elevated random loss for a window
	KindJam       Kind = "jam"       // total loss for a window (interference burst)
	KindDelay     Kind = "delay"     // the paper's asynchronous delay adversary
	KindByz       Kind = "byz"       // node turns actively Byzantine (internal/byz)
	KindMobility  Kind = "mobility"  // random-waypoint motion re-derives link quality
	KindDutyCycle Kind = "dutycycle" // radios sleep on staggered on/off schedules
	KindChurn     Kind = "churn"     // recurring crash-and-rejoin of random nodes
)

// Kinds lists the full event vocabulary. The DSL docs tests check that
// every kind is documented in the Parse grammar and EXPERIMENTS.md.
func Kinds() []Kind {
	return []Kind{KindCrash, KindRecover, KindPartition, KindHeal,
		KindLoss, KindJam, KindDelay, KindByz,
		KindMobility, KindDutyCycle, KindChurn}
}

// Event is one timed scripted fault.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node is the crash/recover target.
	Node int
	// Groups partitions the node-id space; frames between different groups
	// (or to/from a node in no group) are dropped. Nil outside partitions.
	Groups [][]int
	// Prob is the per-delivery probability for loss and delay events.
	Prob float64
	// Max bounds the extra delivery delay drawn by the delay adversary.
	Max time.Duration
	// Duration bounds loss/jam/delay windows; 0 means until the run ends.
	Duration time.Duration
	// Behavior names the byz event's active-Byzantine behavior (one of
	// internal/byz.Names; drivers validate before the run starts).
	Behavior string
	// Speed is the mobility event's node speed in metres per second.
	Speed float64
	// Range is the mobility event's radio range in metres (on the engine's
	// fixed 1 km x 1 km field); pairs farther apart cannot hear each other.
	Range float64
	// Period is the dutycycle event's full on+off cycle length, and the
	// churn event's interval between crash draws.
	Period time.Duration
	// Downtime is how long each churned node stays down before rejoining.
	Downtime time.Duration
}

// Plan is a scripted fault scenario. The zero value is the fault-free run.
type Plan struct {
	Events []Event
}

// CrashAt schedules a crash of one node, which pauses it: it stops
// sending, its radio queue is flushed, inbound frames are discarded and
// its timers stop, but it loses no state — its committed log and mempool,
// every open epoch and every vote, value and share in it survive, so it
// never contradicts what it sent (node.Node.Crash). A node that loses its
// state is not crashed but Byzantine, and counts against f.
func CrashAt(at time.Duration, nd int) Event {
	return Event{At: at, Kind: KindCrash, Node: nd}
}

// RecoverAt schedules the recovery of a crashed node. It resumes every
// epoch where it stopped, with its timers re-armed, and catches up on
// what it missed over NACK retransmission.
func RecoverAt(at time.Duration, nd int) Event {
	return Event{At: at, Kind: KindRecover, Node: nd}
}

// PartitionAt splits the network: frames between nodes in different groups
// (or involving a node listed in no group) are dropped until HealAt.
func PartitionAt(at time.Duration, groups ...[]int) Event {
	return Event{At: at, Kind: KindPartition, Groups: groups}
}

// HealAt ends the current partition.
func HealAt(at time.Duration) Event {
	return Event{At: at, Kind: KindHeal}
}

// LossBurst raises the per-delivery drop probability to prob for dur
// (0 = rest of the run) — bursty interference.
func LossBurst(at, dur time.Duration, prob float64) Event {
	return Event{At: at, Kind: KindLoss, Prob: prob, Duration: dur}
}

// JamAt blanks the channel entirely for dur: every delivery in the window
// is dropped. Equivalent to LossBurst with probability 1.
func JamAt(at, dur time.Duration) Event {
	return Event{At: at, Kind: KindJam, Prob: 1, Duration: dur}
}

// DelayFrom activates the asynchronous delay adversary from at (for dur;
// 0 = rest of the run): each delivery is independently delayed by up to
// max with probability prob.
func DelayFrom(at time.Duration, prob float64, max time.Duration, dur time.Duration) Event {
	return Event{At: at, Kind: KindDelay, Prob: prob, Max: max, Duration: dur}
}

// ByzAt schedules a node turning actively Byzantine: from at onwards its
// outbound component state is rewritten by the named behavior (see
// internal/byz). The node stays Byzantine for the rest of the run —
// drivers exclude it from completion barriers and safety checks, which
// cover honest nodes only.
func ByzAt(at time.Duration, nd int, behavior string) Event {
	return Event{At: at, Kind: KindByz, Node: nd, Behavior: behavior}
}

// MobilityFrom puts every node in random-waypoint motion from at (for
// dur; 0 = rest of the run) on a 1 km x 1 km field: each node walks to
// uniformly drawn waypoints at the given speed (m/s), and a delivery is
// dropped outright when the pair is out of radio range (metres), with
// distance-graded loss inside it. Node trajectories derive from the run
// seed.
func MobilityFrom(at, dur time.Duration, speed, radioRange float64) Event {
	return Event{At: at, Kind: KindMobility, Duration: dur, Speed: speed, Range: radioRange}
}

// DutyCycleFrom puts every radio on an on/off sleep schedule from at (for
// dur; 0 = rest of the run): each node is awake for onFrac of every
// period, with per-node phase offsets staggered by the golden ratio so
// the network never sleeps in lockstep. A delivery is dropped when either
// endpoint is asleep.
func DutyCycleFrom(at, dur time.Duration, onFrac float64, period time.Duration) Event {
	return Event{At: at, Kind: KindDutyCycle, Duration: dur, Prob: onFrac, Period: period}
}

// ChurnFrom runs recurring churn from at (for dur; 0 = rest of the run):
// every period one uniformly drawn node crashes and rejoins downtime
// later through the driver's recovery path (the chain drivers catch the
// rejoiner up over NACK retransmission; peers hold the epoch it resumes at
// for up to 8 × (Window + 2) epochs, protocol.Chain's bound — a downtime
// the peers commit more epochs during strands it).
func ChurnFrom(at, dur time.Duration, period, downtime time.Duration) Event {
	return Event{At: at, Kind: KindChurn, Duration: dur, Period: period, Downtime: downtime}
}

// Byz is the static adversary plan: the listed nodes run the behavior
// from the start.
func Byz(behavior string, nodes ...int) Plan {
	p := Plan{}
	for _, nd := range nodes {
		p.Events = append(p.Events, ByzAt(0, nd, behavior))
	}
	return p
}

// Crash is the classic static fault plan: the listed nodes are down from
// the start and never recover.
func Crash(nodes ...int) Plan {
	p := Plan{}
	for _, nd := range nodes {
		p.Events = append(p.Events, CrashAt(0, nd))
	}
	return p
}

// Delay is the delay-adversary-only plan active for the whole run.
func Delay(prob float64, max time.Duration) Plan {
	return Plan{Events: []Event{DelayFrom(0, prob, max, 0)}}
}

// Then appends events, returning the plan for chaining.
func (p Plan) Then(evs ...Event) Plan {
	p.Events = append(append([]Event(nil), p.Events...), evs...)
	return p
}

// Empty reports whether the plan has no events (fault-free run).
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// DownForever returns the nodes that crash and never recover afterwards.
// Drivers exclude them from completion barriers: waiting on a node that is
// scripted to stay dead would deadline every run.
func (p Plan) DownForever() map[int]bool {
	last := map[int]Event{}
	for _, e := range p.sorted() {
		if e.Kind == KindCrash || e.Kind == KindRecover {
			prev, ok := last[e.Node]
			if !ok || e.At > prev.At || (e.At == prev.At && e.Kind == KindRecover) {
				last[e.Node] = e
			}
		}
	}
	down := map[int]bool{}
	for nd, e := range last {
		if e.Kind == KindCrash {
			down[nd] = true
		}
	}
	return down
}

// ByzNodes returns every node a byz event ever targets. A node is
// untrusted for the whole run once scripted to misbehave at any point,
// so drivers use this set to scope barriers and safety checks to the
// honest nodes.
func (p Plan) ByzNodes() map[int]bool {
	out := map[int]bool{}
	for _, e := range p.Events {
		if e.Kind == KindByz {
			out[e.Node] = true
		}
	}
	return out
}

// sorted returns the events in firing order (stable on equal times).
func (p Plan) sorted() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// String renders the plan in the -scenario DSL (see Parse).
func (p Plan) String() string {
	if p.Empty() {
		return "fault-free"
	}
	parts := make([]string, 0, len(p.Events))
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// String renders one event in the DSL.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", e.Kind, e.At)
	if e.Duration > 0 {
		fmt.Fprintf(&b, "+%s", e.Duration)
	}
	switch e.Kind {
	case KindCrash, KindRecover:
		fmt.Fprintf(&b, ":%d", e.Node)
	case KindPartition:
		groups := make([]string, 0, len(e.Groups))
		for _, g := range e.Groups {
			ids := make([]string, 0, len(g))
			for _, nd := range g {
				ids = append(ids, fmt.Sprint(nd))
			}
			groups = append(groups, strings.Join(ids, ","))
		}
		fmt.Fprintf(&b, ":%s", strings.Join(groups, "/"))
	case KindLoss:
		fmt.Fprintf(&b, ":%g", e.Prob)
	case KindDelay:
		fmt.Fprintf(&b, ":%g,%s", e.Prob, e.Max)
	case KindByz:
		fmt.Fprintf(&b, ":%d:%s", e.Node, e.Behavior)
	case KindMobility:
		fmt.Fprintf(&b, ":%g,%g", e.Speed, e.Range)
	case KindDutyCycle:
		fmt.Fprintf(&b, ":%g,%s", e.Prob, e.Period)
	case KindChurn:
		fmt.Fprintf(&b, ":%s,%s", e.Period, e.Downtime)
	}
	return b.String()
}
