package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// roundCap is the safety bound on the rounds of one binary agreement:
// passing it means a liveness bug, not bad luck with the coin.
const roundCap = 64

// termination is one instance's share of the DECIDED gadget, made on the
// instance's first decision or claim; whether it halted is its bit in the
// gadget's DECIDED row.
type termination struct {
	decided *bool
	// claimed is each peer's DECIDED claim — 0 none yet, else 1 + the value
	// claimed — and claims counts the peers claiming each value. A peer's
	// first claim is the one that counts.
	claimed []uint8
	claims  [2]int
}

// deciding is the DECIDED termination gadget of binary agreement, embedded
// by value in CachinABA and BrachaABA: a node that decides broadcasts a
// DECIDED claim and keeps participating in rounds (deterministically,
// est = v) until N-f claims confirm that every honest node can terminate
// from claims alone.
type deciding struct {
	env *Env
	// terms is by instance, nil until one decides or a peer claims it.
	terms    []*termination
	onDecide func(slot int, value bool)
	// halted is the DECIDED NACK row: the instances that need no more
	// claims.
	halted packet.BitSet
	// pruned says which of a halted instance's per-round intents go off
	// the air: all the owning agreement tells the gadget about itself.
	pruned func(packet.Phase) bool
}

// start sizes the DECIDED row to the instances and installs it: a node
// that opens the epoch late shows every instance unhalted, so the peers'
// claims come back on the air for it.
func (d *deciding) start(slots int) {
	d.terms = make([]*termination, slots)
	d.halted = packet.NewBitSet(slots)
	d.env.T.SetNack(packet.KindABA, packet.PhaseDecided, d.halted)
}

// term returns the slot's record, making it on first mention.
func (d *deciding) term(slot int) *termination {
	if d.terms[slot] == nil {
		d.terms[slot] = &termination{}
	}
	return d.terms[slot]
}

// Decided returns the decision for a slot, or nil.
func (d *deciding) Decided(slot int) *bool {
	if t := d.terms[slot]; t != nil {
		return t.decided
	}
	return nil
}

// DecidedCount returns how many instances have decided.
func (d *deciding) DecidedCount() int {
	n := 0
	for _, t := range d.terms {
		if t != nil && t.decided != nil {
			n++
		}
	}
	return n
}

// decide records the local decision and broadcasts a DECIDED claim.
func (d *deciding) decide(slot int, v bool) {
	t := d.term(slot)
	if t.decided != nil {
		return
	}
	dec := v
	t.decided = &dec
	d.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseDecided, Slot: uint8(slot)},
		Data:      []byte{uint8(b2i(v))},
	})
	d.applyDecided(slot, d.env.Me, v)
	if d.onDecide != nil {
		d.onDecide(slot, v)
	}
}

// handleDecided takes the DECIDED section of peer w, which the caller has
// checked is one of the N.
func (d *deciding) handleDecided(w int, sec packet.Section) {
	for _, e := range sec.Entries {
		if int(e.Slot) >= len(d.terms) || len(e.Data) < 1 {
			continue
		}
		d.applyDecided(int(e.Slot), w, e.Data[0] == 1)
	}
}

func (d *deciding) applyDecided(slot, w int, v bool) {
	t := d.term(slot)
	if t.claimed == nil {
		t.claimed = make([]uint8, d.env.N)
	}
	if t.claimed[w] != 0 {
		return
	}
	t.claimed[w] = 1 + uint8(b2i(v))
	t.claims[b2i(v)]++
	matching := t.claims[b2i(v)]
	// f+1 matching claims contain one honest decider: adopt.
	if matching >= d.env.Weak() && t.decided == nil {
		d.decide(slot, v)
	}
	// N-f claims: every honest node can now terminate from claims alone.
	if matching >= d.env.N-d.env.F && !d.halted.Get(slot) {
		d.halted.Set(slot)
		d.env.T.SetNack(packet.KindABA, packet.PhaseDecided, d.halted)
		d.env.T.RemoveWhere(func(k core.IntentKey) bool {
			return k.Kind == packet.KindABA && int(k.Slot) == slot && d.pruned(k.Phase)
		})
		if d.halted.Count() == len(d.terms) {
			// What belongs to no one instance — a shared coin's shares —
			// is needed by none now: only the DECIDED claims stay on the
			// air, for the laggards.
			d.env.T.RemoveWhere(func(k core.IntentKey) bool {
				return k.Kind == packet.KindABA && k.Phase != packet.PhaseDecided
			})
		}
	}
}
