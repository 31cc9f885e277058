package component

import (
	"fmt"
	"time"

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
// reassemble; a node that learns a slot must complete without holding its
// value advertises the fragments it has in a PhaseRepair intent; holders
// re-serve the rest after a randomized suppression delay. What makes a
// value trustworthy — a READY quorum, a certificate — is the embedding
// component's business. RBC and CBC embed it by value.
//
// The INITIAL NACK row says which slots' values this node holds. Once
// every peer's row shows a slot held, the transport parks the fragments of
// whoever has them on the air — the leader, or a peer that re-served them —
// and a peer whose row turns up without the slot brings them back.
type dissemination struct {
	env   *Env
	kind  packet.Kind
	small bool
	frag  int

	held packet.BitSet // this node's INITIAL row
}

// valueSlot is one instance's dissemination state, embedded by value in
// the components' slot structs.
type valueSlot struct {
	value     []byte
	frags     [][]byte // sized by the first fragment's count; nil entry: not yet received
	assembled bool

	needRepair bool
	repairAt   time.Duration // last repair response, for rate limiting
}

func newDissemination(env *Env, kind packet.Kind, small bool, fragSize, slots int) dissemination {
	if fragSize <= 0 {
		fragSize = DefaultFragSize
	}
	d := dissemination{env: env, kind: kind, small: small, frag: fragSize, held: packet.NewBitSet(slots)}
	env.T.SetNack(kind, packet.PhaseInitial, d.held)
	return d
}

// hold records that the slot's value is assembled here.
func (d *dissemination) hold(slot int, s *valueSlot, value []byte) {
	s.assembled, s.value = true, value
	d.held.Set(slot)
	d.env.T.SetNack(d.kind, packet.PhaseInitial, d.held)
}

// drop forgets an assembled value the quorum evidence contradicts. Any
// repair request on the air advertised fragments of that value, so the next
// requestRepair must replace it.
func (d *dissemination) drop(slot int, s *valueSlot) {
	s.assembled = false
	s.value = nil
	s.frags = nil
	s.needRepair = false
	d.held.Clear(slot)
	d.env.T.SetNack(d.kind, packet.PhaseInitial, d.held)
}

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

// propose publishes this node's value for a slot it leads and returns it:
// the value the epoch's log (Env.Led) holds for the kind, a replay, or else
// the argument, recorded before its first send. A value too large for the
// fragment-count byte is refused here, loudly: on the wire the count would
// wrap, every receiver would drop the fragments, and the instance would
// stall with nothing to show for it.
func (d *dissemination) propose(slot int, value []byte) (sent []byte, replay bool) {
	if d.leader(slot) != d.env.Me {
		panic(fmt.Sprintf("component: node %d proposing kind-%d slot %d led by %d", d.env.Me, d.kind, slot, d.leader(slot)))
	}
	if logged, ok := d.env.Led[d.kind]; ok {
		value, replay = logged, true
	} else if d.env.Led != nil {
		d.env.Led[d.kind] = value
	}
	if !d.small && d.fragments(len(value)) > maxFragments {
		panic(fmt.Sprintf("component: %d B value exceeds the %d B one broadcast can carry (%d fragments of %d B)",
			len(value), maxFragments*d.frag, maxFragments, d.frag))
	}
	d.publish(slot, value, nil)
	return value, replay
}

// publish sets the INITIAL intents for value, skipping the fragments have
// marks as already held (nil: none held).
func (d *dissemination) publish(slot int, value []byte, have packet.BitSet) {
	if d.small {
		d.env.T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: d.kind, Phase: packet.PhaseInitial, Slot: uint8(slot)},
			Data:      append([]byte(nil), value...),
		})
		return
	}
	total := d.fragments(len(value))
	for i := 0; i < total; i++ {
		if have.Get(i) {
			continue
		}
		lo, hi := i*d.frag, (i+1)*d.frag
		if hi > len(value) {
			hi = len(value)
		}
		d.env.T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: d.kind, Phase: packet.PhaseInitial, Slot: uint8(slot), Sub: uint8(i)},
			Flags:     uint8(total),
			Data:      append([]byte(nil), value[lo:hi]...),
		})
	}
}

// receive folds one INITIAL entry from node w into the slot and returns
// the value once it is whole. INITIAL is normally accepted only from the
// leader; after a repair request any peer may supply it, because the
// embedding component re-checks the hash against its quorum evidence
// before delivering, so a forged repair cannot be delivered.
func (d *dissemination) receive(slot int, s *valueSlot, w int, e packet.Entry) ([]byte, bool) {
	if s.assembled || (w != d.leader(slot) && !s.needRepair) {
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
	var value []byte
	for _, f := range s.frags {
		value = append(value, f...)
	}
	return value, true
}

// requestRepair asks peers to re-serve a slot, advertising the fragments
// already received so responders skip them. A requester that has assembled
// the value vouches that it is the one the quorum evidence names and only
// that evidence is missing: it advertises every fragment, so nobody
// re-serves a value to a node that has it. A wrong vouch (a leader that
// proposed afresh) is corrected when the evidence arrives: the embedding
// component drops the value and asks again, advertising what it holds.
func (d *dissemination) requestRepair(slot int, s *valueSlot) {
	if s.needRepair {
		return
	}
	s.needRepair = true
	have := packet.NewBitSet(maxFragments + 1)
	if s.assembled && !d.small {
		for i := 0; i < d.fragments(len(s.value)); i++ {
			have.Set(i)
		}
	} else {
		for i, f := range s.frags {
			if f != nil {
				have.Set(i)
			}
		}
	}
	d.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: d.kind, Phase: packet.PhaseRepair, Slot: uint8(slot)},
		Data:      have,
	})
}

// repairDone withdraws the slot's repair request, if one is out.
func (d *dissemination) repairDone(slot int, s *valueSlot) {
	if s.needRepair {
		d.env.T.Remove(core.IntentKey{Kind: d.kind, Phase: packet.PhaseRepair, Slot: uint8(slot)})
	}
}

// repairDue reports whether this node should answer a repair request for
// the slot now: it must hold the value, and answers at most once per 2 s.
func (d *dissemination) repairDue(s *valueSlot) bool {
	if !s.assembled {
		return false
	}
	now := d.env.Sched.Now()
	if s.repairAt != 0 && now-s.repairAt < 2*time.Second {
		return false
	}
	s.repairAt = now
	return true
}

// repairJitter draws the randomized suppression delay of one re-serve. It
// is a separate step because a Byzantine node's interceptor draws from the
// same generator inside T.Update: where the draw falls among the caller's
// re-announcements is part of the trajectory.
func (d *dissemination) repairJitter() time.Duration {
	return time.Duration(float64(300*time.Millisecond) * (0.5 + d.env.Rand.Float64()))
}

// reserve re-publishes, after delay, the fragments of the slot's value the
// requester's have bitset lacks.
func (d *dissemination) reserve(slot int, s *valueSlot, have packet.BitSet, delay time.Duration) {
	value := s.value
	d.env.Sched.PostAfter(delay, func() { d.publish(slot, value, have) })
}
