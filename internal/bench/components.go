package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/component"
	"repro/internal/crypto"
	"repro/internal/packet"
	"repro/internal/wireless"
)

// This file holds the component-level experiments' one adapter and their
// single-cell executors: each executor runs one rig to completion and
// returns one sample. The grids in table1.go and fig11_13.go fan them out
// across variants, counts, and averaging seeds on the sweep engine.

// Component names a component variant measured in isolation on the rig.
type Component string

// The five broadcast variants of Fig. 11 and the three ABA variants of
// Fig. 12; Table I measures one of each family.
const (
	BRBC      Component = "RBC"
	BRBCSmall Component = "RBC-small"
	BPRBC     Component = "PRBC"
	BCBC      Component = "CBC"
	BCBCSmall Component = "CBC-small"

	ABALC Component = "ABA-LC" // Bracha, local coin
	ABASC Component = "ABA-SC" // Cachin, threshold-signature coin
	ABACP Component = "ABA-CP" // BEAT, threshold coin flipping
)

// The Fig. 11a and Fig. 12a orderings.
var (
	broadcastKinds = []Component{BRBC, BRBCSmall, BPRBC, BCBC, BCBCSmall}
	abaVariants    = []Component{ABALC, ABASC, ABACP}
)

// load is what a rig experiment's instances carry, and how the components
// hosting them are sized.
type load struct {
	slots  int                // instances each component has room for
	shared bool               // Cachin's ABA: one coin per round for all slots
	value  func(s int) []byte // what broadcast instance s proposes
	input  func(s int) bool   // what agreement instance s is given
}

// instance is the one adapter between the rig experiments (Table I,
// Fig. 11, Fig. 12) and a node's component: start instance s here, and has
// instance s finished here? A broadcast instance starts at its proposer —
// node s — alone; an agreement instance starts at every node.
type instance struct {
	start func(s int)
	done  func(s int) bool
}

// newInstance builds kind on one node: the one construction site per
// component kind.
func newInstance(env *component.Env, kind Component, l load) (instance, error) {
	broadcast := func(propose func(int, []byte), done func(int) bool) instance {
		return instance{done: done, start: func(s int) {
			if s == env.Me {
				propose(s, l.value(s))
			}
		}}
	}
	agreement := func(input func(int, bool), decided func(int) *bool) instance {
		return instance{
			start: func(s int) { input(s, l.input(s)) },
			done:  func(s int) bool { return decided(s) != nil },
		}
	}
	switch kind {
	case BRBC, BRBCSmall:
		c := component.NewRBC(env, component.RBCOptions{Slots: l.slots, Small: kind == BRBCSmall})
		return broadcast(c.Propose, c.Delivered), nil
	case BPRBC:
		c := component.NewPRBC(env, component.PRBCOptions{Slots: l.slots})
		return broadcast(c.Propose, func(s int) bool { return c.Proof(s) != nil }), nil
	case BCBC, BCBCSmall:
		c := component.NewCBC(env, component.CBCOptions{
			Kind: packet.KindCBCValue, Slots: l.slots, Small: kind == BCBCSmall,
		})
		return broadcast(c.Propose, c.Delivered), nil
	case ABALC:
		c := component.NewBrachaABA(env, component.BrachaOptions{Slots: l.slots})
		return agreement(c.Input, c.Decided), nil
	case ABASC:
		c := component.NewCachinABA(env, component.SigCoin(env), component.CachinOptions{Slots: l.slots, SharedCoin: l.shared})
		return agreement(c.Input, c.Decided), nil
	case ABACP:
		c := component.NewCachinABA(env, component.FlipCoin(env), component.CachinOptions{Slots: l.slots, SharedCoin: l.shared})
		return agreement(c.Input, c.Decided), nil
	}
	return instance{}, fmt.Errorf("bench: unknown component %q", kind)
}

// harness is a rig with one component kind built on every node.
type harness struct {
	*ComponentRig
	nodes []instance
}

func newHarness(kind Component, seed int64, batched bool, net wireless.Config, l load) (*harness, error) {
	rig, err := NewComponentRig(seed, batched, crypto.LightConfig(), net)
	if err != nil {
		return nil, err
	}
	h := &harness{ComponentRig: rig}
	for _, env := range rig.Envs {
		inst, err := newInstance(env, kind, l)
		if err != nil {
			return nil, err
		}
		h.nodes = append(h.nodes, inst)
	}
	return h, nil
}

// start begins instances [from, to), node by node.
func (h *harness) start(from, to int) {
	for _, n := range h.nodes {
		for s := from; s < to; s++ {
			n.start(s)
		}
	}
}

// finished reports whether every node has finished instances [from, to).
func (h *harness) finished(from, to int) bool {
	for _, n := range h.nodes {
		for s := from; s < to; s++ {
			if !n.done(s) {
				return false
			}
		}
	}
	return true
}

// runParallel starts k instances at once and returns the virtual time
// until every node has finished all of them.
func (h *harness) runParallel(k int, deadline time.Duration) (time.Duration, error) {
	h.start(0, k)
	return h.RunUntil(deadline, func() bool { return h.finished(0, k) })
}

// BroadcastLatency runs `parallel` instances of a broadcast protocol with
// proposals of `proposalPackets` radio frames each and returns the virtual
// time until every node delivers every started instance (Fig. 11a/11b
// point). Small variants carry a fixed tiny payload.
func BroadcastLatency(kind Component, parallel, proposalPackets int, batched bool, seed int64) (time.Duration, error) {
	h, err := newHarness(kind, seed, batched, wireless.DefaultConfig(), load{slots: 4, value: func(i int) []byte {
		if kind == BRBCSmall {
			return []byte{byte(i)}
		}
		if kind == BCBCSmall {
			s := packet.NewBitSet(4)
			s.Set(i)
			return s
		}
		return bytes.Repeat([]byte{byte(i + 1)}, component.DefaultFragSize*proposalPackets)
	}})
	if err != nil {
		return 0, err
	}
	return h.runParallel(parallel, 4*time.Hour)
}

// mixed gives the ABA instances alternating inputs by slot parity. Every
// node gets the same input for a slot, so each instance is unanimous: a
// Cachin instance decides in round 1 (input 1) or round 2 (input 0) on
// its fixed coins and draws no threshold coin.
func mixed(s int) bool { return s%2 == 0 }

// ABAParallelLatency measures the time for `parallel` simultaneous ABA
// instances to decide everywhere (Fig. 12a point).
func ABAParallelLatency(v Component, parallel int, seed int64) (time.Duration, error) {
	h, err := newHarness(v, seed, true, wireless.DefaultConfig(), load{slots: 4, shared: true, input: mixed})
	if err != nil {
		return 0, err
	}
	return h.runParallel(parallel, 8*time.Hour)
}

// abaSerialLatency measures `serial` consecutive ABA executions, each
// started only after the previous decided everywhere (Fig. 12b point).
func abaSerialLatency(v Component, serial int, seed int64) (time.Duration, error) {
	h, err := newHarness(v, seed, true, wireless.DefaultConfig(), load{slots: serial, input: mixed})
	if err != nil {
		return 0, err
	}
	current := 0
	h.start(0, 1)
	return h.RunUntil(8*time.Hour, func() bool {
		if !h.finished(current, current+1) {
			return false
		}
		if current++; current >= serial {
			return true
		}
		h.start(current, current+1)
		return false
	})
}
