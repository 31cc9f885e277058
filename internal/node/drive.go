package node

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// ErrDeadline reports a drive loop that passed its virtual-time bound
// before done() held — the liveness failure every driver must detect.
var ErrDeadline = errors.New("node: virtual deadline exceeded")

// ErrDeadlock reports a drained event queue with done() still false: some
// component stopped scheduling work without finishing — a protocol bug.
var ErrDeadlock = errors.New("node: simulation deadlocked")

// Drive is the shared drive loop: it steps the scheduler until done()
// holds, wrapping the two failure modes in ErrDeadline/ErrDeadlock (with
// the virtual timestamp). Drivers add run context with fmt.Errorf("...:
// %w", err) and callers test with errors.Is.
func Drive(sched *sim.Scheduler, deadline time.Duration, done func() bool) error {
	for !done() {
		if sched.Now() > deadline {
			return fmt.Errorf("%w (deadline %v)", ErrDeadline, deadline)
		}
		if !sched.Step() {
			return fmt.Errorf("%w at %v", ErrDeadlock, sched.Now())
		}
	}
	return nil
}

// SumStats folds every node's cumulative transport counters (crashed and
// recovered transports included) into one aggregate, with one entry-byte
// ledger for all of them.
func SumStats(nodes []*Node) core.Stats {
	var s core.Stats
	for _, n := range nodes {
		if n != nil {
			n.mux.AddStats(&s)
		}
	}
	return s
}
