package component

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// PRBC is provable reliable broadcast (Dumbo's building block): Bracha RBC
// plus a DONE phase in which nodes that delivered slot j broadcast
// threshold-signature shares over (epoch, slot, hash); any f+1 shares
// combine into a proof that at least one honest node holds the proposal
// (Fig. 1a's blue phase, packet structure Fig. 4c).
type PRBC struct {
	env   *Env
	rbc   *RBC
	dones sigCollector

	onProof   func(slot int, value []byte, proof []byte)
	onDeliver func(slot int, value []byte)

	sigDone packet.BitSet // compressed NACK: slot has a combined proof
	slots   []*prbcSlot
}

type prbcSlot struct {
	proof     thresholdSig   // proof.msg is set at our RBC delivery
	pending   map[int][]byte // shares received before our RBC delivery
	peersDone packet.BitSet  // peers whose NACK confirms a combined proof
}

// PRBCOptions configures a PRBC component.
type PRBCOptions struct {
	Slots     int
	FragSize  int
	OnProof   func(slot int, value []byte, proof []byte)
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
	p.dones = sigCollector{env: env, key: env.Suite.TSLow, combined: p.proven}
	for i := 0; i < opts.Slots; i++ {
		p.slots = append(p.slots, &prbcSlot{
			pending:   make(map[int][]byte),
			peersDone: packet.NewBitSet(env.N),
		})
	}
	p.rbc = NewRBC(env, RBCOptions{
		Kind:      packet.KindRBC,
		Slots:     opts.Slots,
		FragSize:  opts.FragSize,
		OnDeliver: p.onRBCDeliver,
	})
	env.T.Register(packet.KindPRBC, p)
	return p
}

// Propose starts this node's instance.
func (p *PRBC) Propose(slot int, value []byte) { p.rbc.Propose(slot, value) }

// RBC exposes the underlying broadcast (for delivered values).
func (p *PRBC) RBC() *RBC { return p.rbc }

// Proof returns the combined proof for a slot, or nil.
func (p *PRBC) Proof(slot int) []byte { return p.slots[slot].proof.sig }

// ProvenCount returns the number of slots with combined proofs.
func (p *PRBC) ProvenCount() int {
	n := 0
	for _, s := range p.slots {
		if s.proof.sig != nil {
			n++
		}
	}
	return n
}

// doneMessage is the string the DONE shares sign.
func (p *PRBC) doneMessage(slot int, h Hash8) []byte {
	msg := make([]byte, 0, 32)
	msg = append(msg, "prbc-done"...)
	msg = binary.BigEndian.AppendUint32(msg, p.env.Session)
	msg = binary.BigEndian.AppendUint16(msg, p.env.Epoch)
	msg = append(msg, byte(slot))
	return append(msg, h[:]...)
}

// VerifyProof checks a combined PRBC proof (used by Dumbo when examining
// other nodes' proof vectors).
func (p *PRBC) VerifyProof(slot int, h Hash8, proof []byte) error {
	sig, err := DecodeSigShareless(proof)
	if err != nil {
		return err
	}
	return p.env.Suite.TSLow.Verify(p.doneMessage(slot, h), sig)
}

func (p *PRBC) onRBCDeliver(slot int, value []byte) {
	s := p.slots[slot]
	s.proof.msg = p.doneMessage(slot, HashValue(value))
	env := p.env
	env.Exec(env.Suite.Cost.TSSign, func() {
		share, err := env.Suite.TSLow.Sign(env.Suite.TSLowShare, s.proof.msg, env.Rand)
		if err != nil {
			panic(fmt.Sprintf("component: prbc share signing: %v", err))
		}
		env.T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Slot: uint8(slot), Sub: uint8(env.Me)},
			Data:      EncodeSigShare(share),
		})
		p.dones.add(&s.proof, slot, env.Me, share)
	})
	// Process shares that arrived before our delivery, in node order
	// (map iteration order must not leak into event scheduling).
	for w := 0; w < p.env.N; w++ {
		if raw, ok := s.pending[w]; ok {
			p.dones.offer(&s.proof, slot, w, raw)
		}
	}
	s.pending = nil // nothing parks once the message is known
	if p.onDeliver != nil {
		p.onDeliver(slot, value)
	}
}

// HandleSection implements core.Handler for KindPRBC.
func (p *PRBC) HandleSection(from uint16, sec packet.Section) {
	if sec.Phase != packet.PhaseDone {
		return
	}
	// The sender's compressed NACK says which slots it holds proofs for;
	// once every peer holds one, our share is no longer needed on the air.
	for slot := range p.slots {
		if !sec.Nack.Get(slot) {
			continue
		}
		s := p.slots[slot]
		s.peersDone.Set(int(from))
		if s.peersDone.Count() >= p.env.N-1 {
			p.env.T.Remove(core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Slot: uint8(slot), Sub: uint8(p.env.Me)})
		}
	}
	for _, e := range sec.Entries {
		slot := int(e.Slot)
		if slot >= len(p.slots) {
			continue
		}
		s := p.slots[slot]
		if s.proof.sig != nil {
			continue
		}
		if s.proof.msg == nil {
			// Cannot verify until we know the hash; park it.
			if _, dup := s.pending[int(from)]; !dup {
				s.pending[int(from)] = append([]byte(nil), e.Data...)
			}
			continue
		}
		p.dones.offer(&s.proof, slot, int(from), e.Data)
	}
}

// proven runs once a slot's DONE shares combined into a proof.
func (p *PRBC) proven(slot int) {
	p.sigDone.Set(slot)
	// Keep our share intent live: a peer that missed share frames
	// (half-duplex, loss) still needs it; peersDone tracking prunes it.
	p.env.T.SetNack(packet.KindPRBC, packet.PhaseDone, p.sigDone)
	if p.onProof != nil {
		p.onProof(slot, p.rbc.Value(slot), p.slots[slot].proof.sig)
	}
}

// DecodeSigShareless parses a combined signature from its raw bytes.
func DecodeSigShareless(raw []byte) (*threshsig.Signature, error) {
	if len(raw) == 0 {
		return nil, errShortShare
	}
	return &threshsig.Signature{S: bigFromBytes(raw)}, nil
}
