package component

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// VCBC is verifiable consistent broadcast, the dissemination half of
// Alea-BFT. By Alea's own definition that is consistent broadcast plus a
// transferable proof, so the machine is CBC on the KindVCBC wire kind
// (queue i is slot i, led by node i) and this type adds only the proof:
// what lets a queue head move between nodes after the agreement phase
// accepts a queue this node never saw delivered.
type VCBC struct{ *CBC }

// VCBCOptions configures a VCBC component.
type VCBCOptions struct {
	Slots     int
	FragSize  int
	OnDeliver func(slot int, value []byte, cert []byte)
}

// NewVCBC creates the component and registers it on the transport.
func NewVCBC(env *Env, opts VCBCOptions) *VCBC {
	cbcOpts := CBCOptions{Kind: packet.KindVCBC, Slots: opts.Slots, FragSize: opts.FragSize, OnDeliver: opts.OnDeliver}
	return &VCBC{NewCBC(env, cbcOpts)}
}

// Broadcast pushes value onto the head of this node's own queue, slot.
func (v *VCBC) Broadcast(slot int, value []byte) { v.Propose(slot, value) }

// Proof returns a delivered slot's transferable proof — the (slot, hash,
// certificate) blob VerifyProof checks — or nil before delivery.
func (v *VCBC) Proof(slot int) []byte {
	s := v.slots[slot]
	if !s.delivered {
		return nil
	}
	return EncodeVCBCProof(VCBCProof{Slot: uint8(slot), Hash: s.certHash, Cert: s.cert.value})
}

// VerifyProof checks a transferable proof against this component's epoch
// identity: the blob must decode, name the given slot, and carry a 2f+1
// certificate over that slot's share message. Pure verification — protocol
// callers charge Suite.Cost.TSVerify around it (Dumbo's proof-vector idiom).
func (v *VCBC) VerifyProof(slot int, raw []byte) error {
	p, err := DecodeVCBCProof(raw)
	if err != nil {
		return err
	}
	if int(p.Slot) != slot {
		return fmt.Errorf("component: vcbc proof names slot %d, want %d", p.Slot, slot)
	}
	return v.env.Suite.TSHigh.Verify(v.shareMessage(slot, p.Hash), &threshsig.Signature{S: bigFromBytes(p.Cert)})
}

// VCBCProof is the decoded transferable proof: a slot's identity, value
// digest, and 2f+1-threshold quorum certificate.
type VCBCProof struct {
	Slot uint8
	Hash Hash8
	Cert []byte
}

// EncodeVCBCProof packs a transferable proof. The encoding is canonical:
// DecodeVCBCProof rejects trailing bytes, so decode-then-encode is the
// identity on every accepted input (the fuzz-pinned property).
func EncodeVCBCProof(p VCBCProof) []byte {
	buf := make([]byte, 0, 1+8+2+len(p.Cert))
	buf = append(buf, p.Slot)
	buf = append(buf, p.Hash[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Cert)))
	return append(buf, p.Cert...)
}

// DecodeVCBCProof parses a transferable proof, rejecting truncated and
// over-long encodings.
func DecodeVCBCProof(raw []byte) (VCBCProof, error) {
	var p VCBCProof
	if len(raw) < 1+8+2 {
		return p, errShortShare
	}
	p.Slot = raw[0]
	copy(p.Hash[:], raw[1:9])
	n := int(binary.BigEndian.Uint16(raw[9:11]))
	raw = raw[11:]
	if len(raw) != n {
		return p, errShortShare
	}
	if n > 0 {
		p.Cert = append([]byte(nil), raw...)
	}
	return p, nil
}
