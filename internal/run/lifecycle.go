package run

import (
	"repro/internal/byz"
	"repro/internal/node"
)

// lifecycle adapts every driver's deployment to the scenario engine. The
// bounds check, the idempotence guard on node.Down, and the arming of a
// Byzantine behavior live here once; a driver supplies only what crash and
// recovery mean for the state it keeps beside each node.
type lifecycle struct {
	nodes []*node.Node // in scenario node-id order
	// crashed tears down the driver's in-memory state for node i, which
	// has just gone off the air; recovered restarts it on the node's
	// fresh transport. Either may be nil.
	crashed, recovered func(i int)
	// armed, if set, extends a byz event beyond node i itself.
	armed func(i int, b byz.Behavior)
}

// NodeCount implements scenario.Lifecycle.
func (l lifecycle) NodeCount() int { return len(l.nodes) }

// CrashNode implements scenario.Lifecycle.
func (l lifecycle) CrashNode(i int) {
	if i < 0 || i >= len(l.nodes) || l.nodes[i].Down() {
		return
	}
	l.nodes[i].Crash()
	if l.crashed != nil {
		l.crashed(i)
	}
}

// RecoverNode implements scenario.Lifecycle.
func (l lifecycle) RecoverNode(i int) {
	if i < 0 || i >= len(l.nodes) || !l.nodes[i].Down() {
		return
	}
	l.nodes[i].Recover()
	if l.recovered != nil {
		l.recovered(i)
	}
}

// SetByzantine implements scenario.ByzLifecycle. The behavior survives
// crash and recovery and, on a mux node, covers every epoch of the
// pipeline, open and future. Names were validated before the run.
func (l lifecycle) SetByzantine(i int, behavior string) {
	if i < 0 || i >= len(l.nodes) {
		return
	}
	b, err := byz.New(behavior)
	if err != nil {
		return
	}
	l.nodes[i].SetBehavior(b)
	if l.armed != nil {
		l.armed(i, b)
	}
}
