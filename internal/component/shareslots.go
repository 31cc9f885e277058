package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// shareSlots is one component's threshold values, one tally per slot,
// batched as the ConsensusBatcher batches every parallel component (Fig.
// 4c): one (kind, phase) section whose entries are the nodes' shares of the
// slots, Slot = slot and Sub = maker, and one NACK row whose bit says the
// slot's value exists. The Decryptor, PRBC's DONE proofs and the cluster
// cut certificate are each one of these.
type shareSlots[X, S, V any] struct {
	collector[X, S, V]
	kind    packet.Kind
	phase   packet.Phase
	tallies []tally[X, S, V]
	done    packet.BitSet // the NACK row: the slot's value exists
	onValue func(slot int, value V)
}

// init makes n slots on env's epoch transport under scheme sc; onValue, if
// not nil, runs once per slot, when its value exists: combined here, or
// taken from a peer's certificate. The row is not up until setRow.
func (s *shareSlots[X, S, V]) init(env *Env, sc scheme[X, S, V], kind packet.Kind, phase packet.Phase, n int, onValue func(slot int, value V)) {
	s.collector = collector[X, S, V]{scheme: sc, env: env, combined: s.settled}
	s.kind, s.phase, s.onValue = kind, phase, onValue
	s.tallies, s.done = make([]tally[X, S, V], n), packet.NewBitSet(n)
}

// setRow puts the done row on the air, or refreshes it: this node's frames
// ask peers for their shares of every slot it has no value for.
func (s *shareSlots[X, S, V]) setRow() { s.env.T.SetNack(s.kind, s.phase, s.done) }

// begin fixes what slot's shares are shares of, releases this node's share
// and takes up the peers' shares that came ahead of it. The first begin
// puts the row up if it is not up yet: until then this node has no subject
// to use a share on, so its frames ask no peer for one, and a peer's
// transport counts it in no slot's settling.
func (s *shareSlots[X, S, V]) begin(slot int, x X) {
	t := &s.tallies[slot]
	if t.open {
		return
	}
	s.setRow()
	s.collector.begin(t, slot, x, core.IntentKey{Kind: s.kind, Phase: s.phase, Slot: uint8(slot), Sub: uint8(s.env.Me)})
}

// value returns slot's value, or the zero V: none yet, or none at all.
func (s *shareSlots[X, S, V]) value(slot int) V { return s.tallies[slot].value }

// HandleSection implements core.Handler: peers' shares of the slots, or
// their certificates. One that comes before its slot begins parks.
func (s *shareSlots[X, S, V]) HandleSection(from uint16, sec packet.Section) {
	if sec.Phase != s.phase {
		return
	}
	w, ok := s.env.peer(from)
	if !ok {
		return
	}
	for _, e := range sec.Entries {
		if int(e.Slot) < len(s.tallies) {
			s.offer(&s.tallies[e.Slot], int(e.Slot), w, e.Flags, e.Data)
		}
	}
}

// settled runs once slot's value exists. This node's share intent stays
// live — with the certificate in its place, if the value has one: a peer
// that missed share frames (half-duplex, loss) still needs it. The
// transport parks it once every peer's row shows the slot done, and a peer
// that turns up without the done bit (a late joiner, or one that lost its
// state) brings it back.
func (s *shareSlots[X, S, V]) settled(slot int, value V) {
	s.done.Set(slot)
	s.setRow()
	if s.onValue != nil {
		s.onValue(slot, value)
	}
}
