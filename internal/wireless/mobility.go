package wireless

import (
	"math"
	"math/rand"
	"time"
)

// Waypoint is the random-waypoint node mobility model: each node roams a
// square field, walking at constant speed between uniformly drawn
// waypoints, and Pos interpolates its position at any virtual time. The
// scenario engine's mobility events use it to re-derive link adjacency
// over time — a delivery between nodes farther apart than the radio range
// is dropped, so the topology the protocols see shifts as nodes move.
//
// State is generated lazily and deterministically: each node owns an RNG
// derived from the model seed and its id, so a node's trajectory is a
// pure function of (seed, id) regardless of which pairs get queried in
// what order. Queries must be time-monotonic per node, which delivery-
// time hooks are (the scheduler's clock never runs backwards).
type Waypoint struct {
	field, speed float64
	seed         int64
	nodes        []*wpNode
}

type wpNode struct {
	rng    *rand.Rand
	x0, y0 float64 // leg start position
	x1, y1 float64 // leg end (the current waypoint)
	t0, t1 time.Duration
}

// NewWaypoint builds the model: a field x field meter square walked at
// speed m/s. Non-positive parameters fall back to a 1 km field at 1 m/s.
func NewWaypoint(field, speed float64, seed int64) *Waypoint {
	if field <= 0 {
		field = 1000
	}
	if speed <= 0 {
		speed = 1
	}
	return &Waypoint{field: field, speed: speed, seed: seed}
}

// node lazily materializes a node's trajectory state.
func (w *Waypoint) node(i int) *wpNode {
	for len(w.nodes) <= i {
		w.nodes = append(w.nodes, nil)
	}
	nd := w.nodes[i]
	if nd == nil {
		nd = &wpNode{rng: rand.New(rand.NewSource(w.seed ^ (int64(i)+1)*0x5851f42d4c957f2d))}
		nd.x0, nd.y0 = nd.rng.Float64()*w.field, nd.rng.Float64()*w.field
		nd.x1, nd.y1 = nd.x0, nd.y0
		w.nodes[i] = nd
	}
	return nd
}

// advance walks the node's legs forward until the current leg covers at.
func (nd *wpNode) advance(w *Waypoint, at time.Duration) {
	for at > nd.t1 {
		nd.x0, nd.y0, nd.t0 = nd.x1, nd.y1, nd.t1
		nd.x1 = nd.rng.Float64() * w.field
		nd.y1 = nd.rng.Float64() * w.field
		d := math.Hypot(nd.x1-nd.x0, nd.y1-nd.y0)
		nd.t1 = nd.t0 + time.Duration(d/w.speed*float64(time.Second))
	}
}

// Pos returns node's position at virtual time at.
func (w *Waypoint) Pos(node int, at time.Duration) (x, y float64) {
	nd := w.node(node)
	nd.advance(w, at)
	if nd.t1 == nd.t0 {
		return nd.x1, nd.y1
	}
	f := float64(at-nd.t0) / float64(nd.t1-nd.t0)
	if f < 0 {
		f = 0
	}
	return nd.x0 + (nd.x1-nd.x0)*f, nd.y0 + (nd.y1-nd.y0)*f
}

// Dist returns the distance in meters between two nodes at virtual time
// at.
func (w *Waypoint) Dist(a, b int, at time.Duration) float64 {
	ax, ay := w.Pos(a, at)
	bx, by := w.Pos(b, at)
	return math.Hypot(ax-bx, ay-by)
}
