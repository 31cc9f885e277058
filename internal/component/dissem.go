package component

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/packet"
)

const (
	// maxFragments is the most INITIAL fragments one value may span: the
	// fragment count travels in the entry's one-byte Flags field.
	maxFragments = 255
	// DefaultFragSize is the INITIAL fragment payload when a component's
	// options name none: one radio frame's worth.
	DefaultFragSize = 160
	// MaxValueBytes is the largest value one broadcast carries at
	// DefaultFragSize; propose refuses anything larger.
	MaxValueBytes = maxFragments * DefaultFragSize
)

// dissemination is the value-dissemination half every broadcast shares
// (the paper's INITIAL section, Fig. 4–5): the leader splits its value into
// INITIAL fragments, or inlines it in the -small variants; receivers
// reassemble. What makes a value trustworthy — a READY quorum, a
// certificate — is the embedding component's business, and so is bringing
// it back: its votes and certificates return by their own NACK rows. RBC
// and CBC embed it by value.
//
// Two NACK rows bring values back. The INITIAL row says which slots'
// values this node holds: once every peer's row shows a slot held, the
// transport parks the leader's fragments, and a peer whose row turns up
// without the slot brings them back. The REPAIR row asks every holder, not
// only the leader: a node that learns a slot must complete without holding
// its value clears the slot in it (want), and every node that holds the
// value keeps its fragments parked as REPAIR intents (hold), which the
// row brings back through the transport's demand — at most once per base
// period each, and parked again once every row shows the slot done.
type dissemination struct {
	env   *Env
	kind  packet.Kind
	small bool
	frag  int
	slots int

	held packet.BitSet // this node's INITIAL row: the slots whose value it holds
	// repair is this node's REPAIR row: every slot set but those whose
	// value the quorum evidence says must complete here and it lacks. It is
	// nil until the first such slot, so an epoch that loses nothing carries
	// none.
	repair packet.BitSet
}

// valueSlot is one instance's dissemination state, embedded by value in
// the components' slot structs; whether the value is assembled is the
// slot's bit in the INITIAL row (held).
type valueSlot struct {
	value []byte
	frags [][]byte // sized by the first fragment's count; nil entry: not yet received
}

func newDissemination(env *Env, kind packet.Kind, small bool, fragSize, slots int) dissemination {
	if fragSize <= 0 {
		fragSize = DefaultFragSize
	}
	d := dissemination{env: env, kind: kind, small: small, frag: fragSize, slots: slots, held: packet.NewBitSet(slots)}
	env.T.SetNack(kind, packet.PhaseInitial, d.held)
	return d
}

// hold records that the slot's value is assembled here, withdraws this
// node's want of it, and keeps the value servable: its fragments wait off
// the air as REPAIR intents until a peer's REPAIR row asks for the slot.
func (d *dissemination) hold(slot int, s *valueSlot, value []byte) {
	s.value = value
	d.held.Set(slot)
	d.env.T.SetNack(d.kind, packet.PhaseInitial, d.held)
	if d.wanted(slot) {
		d.repair.Set(slot)
		d.env.T.SetNack(d.kind, packet.PhaseRepair, d.repair)
	}
	d.intents(slot, packet.PhaseRepair, value, d.env.T.Hold)
}

// drop forgets an assembled value the quorum evidence contradicts, and
// the REPAIR intents that would serve it.
func (d *dissemination) drop(slot int, s *valueSlot) {
	s.value, s.frags = nil, nil
	d.held.Clear(slot)
	d.env.T.SetNack(d.kind, packet.PhaseInitial, d.held)
	d.env.T.RemoveWhere(func(k core.IntentKey) bool {
		return k.Kind == d.kind && k.Phase == packet.PhaseRepair && int(k.Slot) == slot
	})
}

// want asks for the value of a slot the quorum evidence says must complete
// here and this node lacks: it clears the slot in the REPAIR row,
// installing the row with every other slot set at the first such slot.
func (d *dissemination) want(slot int) {
	if d.repair == nil {
		d.repair = packet.NewBitSet(d.slots)
		for i := 0; i < d.slots; i++ {
			d.repair.Set(i)
		}
	}
	if d.repair.Get(slot) {
		d.repair.Clear(slot)
		d.env.T.SetNack(d.kind, packet.PhaseRepair, d.repair)
	}
}

// wanted reports whether this node's REPAIR row asks for the slot.
func (d *dissemination) wanted(slot int) bool { return d.repair != nil && !d.repair.Get(slot) }

// leader returns the slot's proposer: slot i belongs to node i mod N.
func (d *dissemination) leader(slot int) int { return slot % d.env.N }

// fragments returns how many INITIAL entries a value of size bytes spans
// (an empty value still takes one).
func (d *dissemination) fragments(size int) int {
	if size == 0 {
		return 1
	}
	return (size + d.frag - 1) / d.frag
}

// propose publishes this node's value for a slot it leads and returns it.
// A value too large for the fragment-count byte is refused here, loudly:
// on the wire the count would wrap, every receiver would drop the
// fragments, and the instance would stall with nothing to show for it.
func (d *dissemination) propose(slot int, value []byte) []byte {
	if d.leader(slot) != d.env.Me {
		panic(fmt.Sprintf("component: node %d proposing kind-%d slot %d led by %d", d.env.Me, d.kind, slot, d.leader(slot)))
	}
	if !d.small && d.fragments(len(value)) > maxFragments {
		panic(fmt.Sprintf("component: %d B value exceeds the %d B one broadcast can carry (%d fragments of %d B)",
			len(value), maxFragments*d.frag, maxFragments, d.frag))
	}
	d.intents(slot, packet.PhaseInitial, value, d.env.T.Update)
	return value
}

// intents hands put the slot's intents of phase that carry value: its
// fragments, or the value inline in a -small variant. Their Data aliases
// value, which no one writes once proposed or assembled.
func (d *dissemination) intents(slot int, phase packet.Phase, value []byte, put func(core.Intent)) {
	key := core.IntentKey{Kind: d.kind, Phase: phase, Slot: uint8(slot)}
	if d.small {
		put(core.Intent{IntentKey: key, Data: value})
		return
	}
	total := d.fragments(len(value))
	for i := 0; i < total; i++ {
		lo, hi := i*d.frag, min((i+1)*d.frag, len(value))
		key.Sub = uint8(i)
		put(core.Intent{IntentKey: key, Flags: uint8(total), Data: value[lo:hi:hi]})
	}
}

// receive folds one INITIAL or REPAIR entry from node w into the slot and
// returns the value once it is whole. INITIAL is accepted from the leader
// only; REPAIR from any peer, and only for a slot this node's REPAIR row
// wants: the embedding component re-checks the hash against its quorum
// evidence before delivering, so a forged repair cannot be delivered.
func (d *dissemination) receive(slot int, s *valueSlot, w int, phase packet.Phase, e packet.Entry) ([]byte, bool) {
	if d.held.Get(slot) || phase == packet.PhaseRepair && !d.wanted(slot) || phase != packet.PhaseRepair && w != d.leader(slot) {
		return nil, false
	}
	if d.small {
		return append([]byte(nil), e.Data...), true
	}
	total := int(e.Flags)
	if total == 0 {
		return nil, false
	}
	if s.frags == nil {
		s.frags = make([][]byte, total)
	}
	if total != len(s.frags) || int(e.Sub) >= total || s.frags[e.Sub] != nil {
		return nil, false
	}
	// Non-nil even when empty, so an empty value's only fragment counts.
	s.frags[e.Sub] = append([]byte{}, e.Data...)
	for _, f := range s.frags {
		if f == nil {
			return nil, false
		}
	}
	// One allocation sized from the fragments (nil for an empty value, as
	// before).
	return slices.Concat(s.frags...), true
}
