package component

import (
	"encoding/binary"

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
	env *Env
	rbc *RBC
	// dones opens a slot's proof at our RBC delivery, which fixes the
	// message signed; shares received before that park in it.
	dones     sigSlots
	onDeliver func(slot int, value []byte)
}

// sigSlots are threshold signatures in the making, one per slot, each over
// its own message: PRBC's DONE proofs and the cut certificate.
type sigSlots = shareSlots[[]byte, *threshsig.SigShare, []byte]

// PRBCOptions configures a PRBC component.
type PRBCOptions struct {
	Slots     int
	OnProof   func(slot int, value []byte) // the slot has its proof (Proof)
	OnDeliver func(slot int, value []byte) // underlying RBC delivery hook
}

// NewPRBC creates the component and registers both its RBC part (KindRBC)
// and its DONE part (KindPRBC) on the transport. Unlike the Decryptor's,
// the DONE row goes up at once.
func NewPRBC(env *Env, opts PRBCOptions) *PRBC {
	p := &PRBC{env: env, onDeliver: opts.OnDeliver}
	low := sigScheme(env, false)
	p.dones.init(env, low, packet.KindPRBC, packet.PhaseDone, opts.Slots, func(slot int, _ []byte) {
		if opts.OnProof != nil {
			opts.OnProof(slot, p.rbc.Value(slot))
		}
	})
	p.rbc = NewRBC(env, RBCOptions{
		Slots:     opts.Slots,
		OnDeliver: p.onRBCDeliver,
	})
	p.dones.setRow()
	env.T.Register(packet.KindPRBC, &p.dones)
	return p
}

// Propose starts this node's instance.
func (p *PRBC) Propose(slot int, value []byte) { p.rbc.Propose(slot, value) }

// RBC exposes the underlying broadcast (for delivered values).
func (p *PRBC) RBC() *RBC { return p.rbc }

// Proof returns the combined proof for a slot, or nil.
func (p *PRBC) Proof(slot int) []byte { return p.dones.value(slot) }

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
	p.dones.begin(slot, p.doneMessage(slot, HashValue(value)))
	if p.onDeliver != nil {
		p.onDeliver(slot, value)
	}
}

// CutCert is one cluster cut's certificate in the making (the clustered
// deployment of Sec. V-B): f+1 shares of the cluster's low-threshold key
// over one message, collected on the cluster's own channel exactly as
// PRBC collects a DONE proof, and transferable once combined. It is one
// slot of KindGlobal/PhaseDone proofs, whose tally and row open at Begin,
// when this member commits the epoch the cut digests; shares that come
// earlier park.
type CutCert struct{ sigSlots }

// NewCutCert makes the tally on env's epoch transport; onCert runs once,
// with the certificate, when it is combined here or taken from a peer.
func NewCutCert(env *Env, onCert func(cert []byte)) *CutCert {
	c := &CutCert{}
	low := sigScheme(env, false)
	c.init(env, low, packet.KindGlobal, packet.PhaseDone, 1, func(_ int, cert []byte) { onCert(cert) })
	return c
}

// Begin fixes the message the cut's shares sign, installs the NACK row
// that asks peers for theirs, and releases this member's share.
func (c *CutCert) Begin(msg []byte) { c.begin(0, msg) }

// Cert returns the combined certificate, or nil.
func (c *CutCert) Cert() []byte { return c.value(0) }
