// Package byz implements scripted active-Byzantine behaviors: a Behavior
// interposes on a node's outbound component state (core.Intent updates)
// and may rewrite, withhold, corrupt, or fork it before it reaches the
// air. A node assembled with a non-nil Behavior (internal/node) becomes
// Byzantine; everything below the interposition point — its keys, radio,
// and the honest peers' verification machinery — is unchanged, so runs
// with Byzantine nodes exercise exactly the defenses the protocols claim:
// echo quorums against equivocation, share/proof verification against
// garbage, the DECIDED gadget against vote flipping, and NACK repair
// against withholding.
//
// Behaviors are deliberately two-faced: the Byzantine node's own state
// machine stays honest (components apply their own contributions locally
// before the transport sees them), while peers receive the rewritten
// stream. Randomness comes from the node's seed-derived generator, so a
// Byzantine run is as reproducible as a fault-free one.
//
// The five built-in behaviors form the scenario DSL vocabulary
// (`byz@<t>:<node>:<behavior>`): "equivocate", "withhold", "garbage",
// "flipvotes", and "forgecut". The last is honest on the wire: it is the
// rule by which the clustered driver forges the cut records an armed
// uplink seat submits (ForgeCut.Forge).
package byz

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Behavior rewrites one outbound intent. The returned slice replaces the
// intent in the transport's snapshot state: return the input unchanged to
// pass it through, nil to withhold it, or variants to corrupt it. Delayed
// conflicting state (equivocation) is planted through ctx.InjectAfter.
type Behavior interface {
	Name() string
	Rewrite(ctx Ctx, in core.Intent) []core.Intent
}

// Ctx is what a Behavior may use while rewriting: the node's seed-derived
// randomness, the virtual clock, and the transport the intent targets.
type Ctx struct {
	Rand  *rand.Rand
	Sched *sim.Scheduler
	T     *core.Transport
}

// InjectAfter plants an intent into the transport after a delay,
// bypassing the behavior (no re-interception). Equivocation uses it to
// put a conflicting snapshot on the air once peers have latched the
// first one.
func (c Ctx) InjectAfter(d time.Duration, in core.Intent) {
	t := c.T
	c.Sched.PostAfter(d, func() { t.Inject(in) })
}

// Interceptor binds a Behavior to a node's randomness and clock,
// implementing core.Interceptor for every epoch the node opens (its mux
// holds the one Interceptor).
type Interceptor struct {
	Rand     *rand.Rand
	Sched    *sim.Scheduler
	Behavior Behavior
}

// Outbound implements core.Interceptor.
func (ic *Interceptor) Outbound(t *core.Transport, in core.Intent) []core.Intent {
	return ic.Behavior.Rewrite(Ctx{Rand: ic.Rand, Sched: ic.Sched, T: t}, in)
}

var _ core.Interceptor = (*Interceptor)(nil)

// The built-in behavior names (the scenario DSL vocabulary).
const (
	NameEquivocate = "equivocate"
	NameWithhold   = "withhold"
	NameGarbage    = "garbage"
	NameFlipVotes  = "flipvotes"
	NameForgeCut   = "forgecut"
)

// New constructs a built-in behavior by name. Unknown names error, which
// is how the drivers validate a scenario's byz events before starting.
func New(name string) (Behavior, error) {
	switch name {
	case NameEquivocate:
		return Equivocate{}, nil
	case NameWithhold:
		return Withhold{}, nil
	case NameGarbage:
		return Garbage{}, nil
	case NameFlipVotes:
		return FlipVotes{}, nil
	case NameForgeCut:
		return ForgeCut{}, nil
	default:
		return nil, fmt.Errorf("byz: unknown behavior %q (have %v)", name, Names())
	}
}

// Names lists the built-in behaviors, sorted.
func Names() []string {
	out := []string{NameEquivocate, NameWithhold, NameGarbage, NameFlipVotes, NameForgeCut}
	sort.Strings(out)
	return out
}
