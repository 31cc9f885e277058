package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// RBC runs N parallel Bracha reliable-broadcast instances (one slot per
// proposer). Phases follow Fig. 1a of the paper: INITIAL (1-to-N proposal
// dissemination, fragmented across packets when large), ECHO and READY
// (N-to-N hash votes). The -small variant (Fig. 5a) carries tiny proposals
// inline in the vote packet, merging INITIAL into the other phases.
//
// Reliability is NACK-based: the ECHO and READY rows say which slots this
// node has seen through each phase, and a peer whose rows show a slot
// undone gets the votes back, parked ones included. A node holding 2f+1
// READYs for a value it never received asks for it by its REPAIR row, and
// every peer holding the value serves its fragments, and only those.
type RBC struct {
	dissemination
	slots []rbcSlot

	onDeliver func(slot int, value []byte)

	echoDone  packet.BitSet // compressed O(N) NACK: slot reached 2f+1 echoes
	readyDone packet.BitSet
}

type rbcSlot struct {
	valueSlot

	// Votes: first vote per peer wins (equivocation containment).
	echoes  hashVotes
	readies hashVotes

	sentEcho  bool
	sentReady bool
	delivered bool
}

// RBCOptions configures an RBC component.
type RBCOptions struct {
	Slots     int  // number of parallel instances (= N normally)
	Small     bool // inline small proposals (RBC-small)
	OnDeliver func(slot int, value []byte)
}

// NewRBC creates the component and registers it on the transport.
func NewRBC(env *Env, opts RBCOptions) *RBC {
	r := &RBC{
		onDeliver: opts.OnDeliver,
		echoDone:  packet.NewBitSet(opts.Slots),
		readyDone: packet.NewBitSet(opts.Slots),
	}
	// One block of slots and one of their votes, ECHO then READY per slot.
	r.slots = make([]rbcSlot, opts.Slots)
	votes := make(hashVotes, 2*opts.Slots*env.N)
	for i := range r.slots {
		at := 2 * i * env.N
		r.slots[i].echoes = votes[at : at+env.N : at+env.N]
		r.slots[i].readies = votes[at+env.N : at+2*env.N : at+2*env.N]
	}
	r.dissemination = newDissemination(env, packet.KindRBC, opts.Small, DefaultFragSize, opts.Slots)
	env.T.SetNack(r.kind, packet.PhaseEcho, r.echoDone)
	env.T.SetNack(r.kind, packet.PhaseReady, r.readyDone)
	env.T.Register(packet.KindRBC, r)
	return r
}

// Delivered reports whether a slot has delivered.
func (r *RBC) Delivered(slot int) bool { return r.slots[slot].delivered }

// Value returns the delivered value of a slot (nil before delivery).
func (r *RBC) Value(slot int) []byte {
	s := &r.slots[slot]
	if !s.delivered {
		return nil
	}
	return s.value
}

// DeliveredCount returns how many slots have delivered.
func (r *RBC) DeliveredCount() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].delivered {
			n++
		}
	}
	return n
}

// Propose starts instance slot with this node as leader.
func (r *RBC) Propose(slot int, value []byte) {
	r.acceptValue(slot, r.propose(slot, value))
}

// ProposeEncrypted proposes plain threshold-encrypted on the node's CPU,
// HoneyBadgerBFT's and BEAT's proposal path.
func (r *RBC) ProposeEncrypted(slot int, plain []byte) {
	r.env.Exec(r.env.Suite.Cost.TEEncrypt, func() {
		ct, err := r.env.Suite.Ops.Dec.Encrypt(plain, r.env.Rand)
		if err != nil {
			panic("component: encrypting proposal: " + err.Error())
		}
		r.Propose(slot, EncodeCiphertext(r.env.Suite.TE.Group, ct))
	})
}

// acceptValue handles a fully assembled proposal (own or received).
func (r *RBC) acceptValue(slot int, value []byte) {
	s := &r.slots[slot]
	if r.held.Get(slot) {
		return
	}
	r.hold(slot, &s.valueSlot, value)
	if !s.sentEcho {
		s.sentEcho = true
		h := HashValue(value)
		r.env.T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: r.kind, Phase: packet.PhaseEcho, Slot: uint8(slot)},
			Data:      h[:],
		})
		r.applyEcho(slot, r.env.Me, h)
	}
	r.maybeDeliver(slot)
}

// HandleSection implements core.Handler.
func (r *RBC) HandleSection(from uint16, sec packet.Section) {
	w, ok := r.env.peer(from)
	if !ok {
		return
	}
	switch sec.Phase {
	case packet.PhaseInitial, packet.PhaseRepair:
		for _, e := range sec.Entries {
			r.handleValue(w, sec.Phase, e)
		}
	case packet.PhaseEcho:
		for _, e := range sec.Entries {
			if int(e.Slot) < len(r.slots) && len(e.Data) >= 8 {
				var h Hash8
				copy(h[:], e.Data)
				r.applyEcho(int(e.Slot), w, h)
			}
		}
	case packet.PhaseReady:
		for _, e := range sec.Entries {
			if int(e.Slot) < len(r.slots) && len(e.Data) >= 8 {
				var h Hash8
				copy(h[:], e.Data)
				r.applyReady(int(e.Slot), w, h)
			}
		}
	}
}

func (r *RBC) handleValue(w int, phase packet.Phase, e packet.Entry) {
	slot := int(e.Slot)
	if slot >= len(r.slots) {
		return
	}
	if value, whole := r.receive(slot, &r.slots[slot].valueSlot, w, phase, e); whole {
		r.acceptValue(slot, value)
	}
}

func (r *RBC) applyEcho(slot, w int, h Hash8) {
	s := &r.slots[slot]
	if !s.echoes.cast(w, h) {
		return
	}
	if n := s.echoes.count(h); n >= r.env.Quorum() {
		if !r.echoDone.Get(slot) {
			r.echoDone.Set(slot)
			r.env.T.SetNack(r.kind, packet.PhaseEcho, r.echoDone)
		}
		r.sendReady(slot, h)
	}
}

func (r *RBC) applyReady(slot, w int, h Hash8) {
	s := &r.slots[slot]
	if !s.readies.cast(w, h) {
		return
	}
	n := s.readies.count(h)
	if n >= r.env.Weak() {
		r.sendReady(slot, h) // READY amplification
	}
	if n >= r.env.Quorum() && !r.readyDone.Get(slot) {
		r.readyDone.Set(slot)
		r.env.T.SetNack(r.kind, packet.PhaseReady, r.readyDone)
	}
	r.maybeDeliver(slot)
}

func (r *RBC) sendReady(slot int, h Hash8) {
	s := &r.slots[slot]
	if s.sentReady {
		return
	}
	s.sentReady = true
	r.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: r.kind, Phase: packet.PhaseReady, Slot: uint8(slot)},
		Data:      h[:],
	})
	r.applyReady(slot, r.env.Me, h)
}

func (r *RBC) maybeDeliver(slot int) {
	s := &r.slots[slot]
	if s.delivered {
		return
	}
	// Find the hash with a READY quorum: first votes count, so at most one
	// has.
	var qh Hash8
	found := false
	for _, v := range s.readies {
		if v.voted && s.readies.count(v.hash) >= r.env.Quorum() {
			qh, found = v.hash, true
			break
		}
	}
	if !found {
		return
	}
	if r.held.Get(slot) && HashValue(s.value) != qh {
		// The quorum converged on a different proposal than the one we
		// assembled (equivocating leader). Drop ours and repair.
		r.env.Reject()
		r.drop(slot, &s.valueSlot)
	}
	if !r.held.Get(slot) {
		r.want(slot)
		return
	}
	s.delivered = true
	if r.onDeliver != nil {
		r.onDeliver(slot, s.value)
	}
}

// hashVotes is one phase's hash votes on a slot: each peer's first.
type hashVotes []struct {
	hash  Hash8
	voted bool
}

// cast records peer w's vote and reports whether it was w's first.
func (vs hashVotes) cast(w int, h Hash8) bool {
	if vs[w].voted {
		return false
	}
	vs[w].hash, vs[w].voted = h, true
	return true
}

// count returns how many peers voted for h.
func (vs hashVotes) count(h Hash8) int {
	n := 0
	for _, v := range vs {
		if v.voted && v.hash == h {
			n++
		}
	}
	return n
}
