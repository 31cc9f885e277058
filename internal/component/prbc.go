package component

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// PRBC is provable reliable broadcast (Dumbo's building block): Bracha RBC
// plus a DONE phase in which nodes that delivered slot j broadcast
// threshold-signature shares over (epoch, slot, hash); any f+1 shares
// combine into a proof that at least one honest node holds the proposal
// (Fig. 1a's blue phase, packet structure Fig. 4c). The proof is
// transferable: a node that holds it sends it in its share's place, and a
// peer's proof settles the slot as f+1 shares would.
type PRBC struct {
	env   *Env
	rbc   *RBC
	dones collector[[]byte, *threshsig.SigShare, []byte]

	onProof   func(slot int, value []byte)
	onDeliver func(slot int, value []byte)

	sigDone packet.BitSet // compressed NACK: slot has a combined proof
	slots   []*prbcSlot
}

type prbcSlot struct {
	// proof opens at our RBC delivery, which fixes the message signed;
	// shares received before that park in it.
	proof tally[[]byte, *threshsig.SigShare, []byte]
}

// PRBCOptions configures a PRBC component.
type PRBCOptions struct {
	Slots     int
	OnProof   func(slot int, value []byte) // the slot has its proof (Proof)
	OnDeliver func(slot int, value []byte) // underlying RBC delivery hook
}

// NewPRBC creates the component and registers both its RBC part (KindRBC)
// and its DONE part (KindPRBC) on the transport.
func NewPRBC(env *Env, opts PRBCOptions) *PRBC {
	p := &PRBC{
		env:       env,
		onProof:   opts.OnProof,
		onDeliver: opts.OnDeliver,
		sigDone:   packet.NewBitSet(opts.Slots),
	}
	p.dones = collector[[]byte, *threshsig.SigShare, []byte]{
		scheme: sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare), env: env, combined: p.proven,
	}
	for i := 0; i < opts.Slots; i++ {
		p.slots = append(p.slots, &prbcSlot{})
	}
	p.rbc = NewRBC(env, RBCOptions{
		Slots:     opts.Slots,
		OnDeliver: p.onRBCDeliver,
	})
	env.T.SetNack(packet.KindPRBC, packet.PhaseDone, p.sigDone)
	env.T.Register(packet.KindPRBC, p)
	return p
}

// Propose starts this node's instance.
func (p *PRBC) Propose(slot int, value []byte) { p.rbc.Propose(slot, value) }

// RBC exposes the underlying broadcast (for delivered values).
func (p *PRBC) RBC() *RBC { return p.rbc }

// Proof returns the combined proof for a slot, or nil.
func (p *PRBC) Proof(slot int) []byte { return p.slots[slot].proof.value }

// doneMessage is the string the DONE shares sign.
func (p *PRBC) doneMessage(slot int, h Hash8) []byte {
	msg := make([]byte, 0, 32)
	msg = append(msg, "prbc-done"...)
	msg = binary.BigEndian.AppendUint32(msg, p.env.Session)
	msg = binary.BigEndian.AppendUint16(msg, p.env.Epoch)
	msg = append(msg, byte(slot))
	return append(msg, h[:]...)
}

func (p *PRBC) onRBCDeliver(slot int, value []byte) {
	p.dones.begin(&p.slots[slot].proof, slot, p.doneMessage(slot, HashValue(value)),
		core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Slot: uint8(slot), Sub: uint8(p.env.Me)})
	if p.onDeliver != nil {
		p.onDeliver(slot, value)
	}
}

// HandleSection implements core.Handler for KindPRBC.
func (p *PRBC) HandleSection(from uint16, sec packet.Section) {
	if sec.Phase != packet.PhaseDone {
		return
	}
	w, ok := p.env.peer(from)
	if !ok {
		return
	}
	for _, e := range sec.Entries {
		slot := int(e.Slot)
		if slot >= len(p.slots) {
			continue
		}
		// Until our RBC delivers we do not know the hash: the share parks.
		p.dones.offer(&p.slots[slot].proof, slot, w, e.Flags, e.Data)
	}
}

// proven runs once a slot has its proof: DONE shares combined here, or a
// peer's proof checked.
func (p *PRBC) proven(slot int, _ []byte) {
	p.sigDone.Set(slot)
	// Keep our share intent live, the proof in the share's place: a peer
	// that missed share frames (half-duplex, loss) still needs it; the
	// transport parks it once every peer's DONE row shows the proof.
	p.env.T.SetNack(packet.KindPRBC, packet.PhaseDone, p.sigDone)
	if p.onProof != nil {
		p.onProof(slot, p.rbc.Value(slot))
	}
}
