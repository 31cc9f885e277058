package component

import "repro/internal/packet"

// VCBC is a CBC on the KindVCBC wire kind, Alea-BFT's dissemination, which
// the engine builds with NewCBC directly. The name stays for the benchmark
// module's component rig (benchmark/layers.go), which times it.
type VCBC struct{ *CBC }

// VCBCOptions configures a VCBC; NewVCBC sets its Kind.
type VCBCOptions = CBCOptions

// NewVCBC creates the component and registers it on the transport.
func NewVCBC(env *Env, opts VCBCOptions) *VCBC {
	opts.Kind = packet.KindVCBC
	return &VCBC{NewCBC(env, opts)}
}

// Broadcast pushes value onto the head of this node's own queue, slot.
func (v *VCBC) Broadcast(slot int, value []byte) { v.Propose(slot, value) }
