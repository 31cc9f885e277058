package component

import "repro/internal/packet"

// VCBC is the dissemination half of Alea-BFT: consistent broadcast on the
// KindVCBC wire kind, queue i being slot i, led by node i. Alea-BFT defines
// VCBC by a transferable proof; what moves a queue head to a node whose
// agreement phase accepted a queue it never saw delivered is the CBC FINISH
// certificate, pulled with Fetch, so the type adds nothing to the machine
// but its name and wire kind.
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
