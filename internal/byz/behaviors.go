package byz

import (
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// Equivocate sends conflicting state to different peers: every
// value-bearing intent (proposal fragments, the fragments it serves as
// repairs, hash votes, certificates) goes out normally, and a conflicting
// variant is injected shortly after.
// Because frames are state snapshots, peers that latched the first
// variant keep it while peers that hear only the later retransmissions
// see the other — the strongest equivocation a broadcast medium admits.
// The defense is quorum-on-value: two conflicting values would each need
// f+1 honest votes for a 2f+1 quorum, which 2f+1 honest nodes cannot
// supply (internal/component/rbc.go).
type Equivocate struct{}

// Name implements Behavior.
func (Equivocate) Name() string { return NameEquivocate }

// Rewrite implements Behavior.
func (Equivocate) Rewrite(ctx Ctx, in core.Intent) []core.Intent {
	switch in.Phase {
	case packet.PhaseInitial, packet.PhaseRepair, packet.PhaseEcho, packet.PhaseReady, packet.PhaseFinish:
	default:
		return []core.Intent{in}
	}
	if len(in.Data) == 0 {
		return []core.Intent{in}
	}
	alt := in
	alt.Data = conflictOf(in.Data)
	delay := 500*time.Millisecond + time.Duration(ctx.Rand.Int63n(int64(4*time.Second)))
	ctx.InjectAfter(delay, alt)
	return []core.Intent{in}
}

// conflictOf derives the deterministic conflicting variant of a payload.
// XOR keeps the length (so fragmented proposals still assemble — into a
// different value) while scrambling any structure: a batch or ciphertext
// that wins the quorum in this form fails decoding at the commit layer,
// and so does a proposal assembled from fragments of both variants, which
// fails its seal or its ciphertext's tag.
func conflictOf(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = b ^ 0xA5
	}
	return out
}

// Withhold silently drops outbound state: threshold shares and the
// fragments it would serve as repairs always, everything else with
// probability withholdFrac. The node keeps receiving and processing
// normally — it free-rides on the protocol while starving peers of its
// contributions.
// Its NACK rows, the REPAIR row that asks for a value included, bypass
// the interceptor and cannot be withheld. The defense is threshold
// sizing: quorums of 2f+1 are satisfiable by the 2f+1 honest nodes
// alone, and NACK retransmission recovers what the drops delay.
type Withhold struct{}

// withholdFrac is Withhold's drop probability for the phases it does not
// always drop.
const withholdFrac = 0.5

// Name implements Behavior.
func (Withhold) Name() string { return NameWithhold }

// Rewrite implements Behavior.
func (Withhold) Rewrite(ctx Ctx, in core.Intent) []core.Intent {
	switch in.Phase {
	case packet.PhaseDone, packet.PhaseShare, packet.PhaseDecShare, packet.PhaseRepair:
		return nil // shares, proofs, and served repairs: always withheld
	}
	if ctx.Rand.Float64() < withholdFrac {
		return nil
	}
	return []core.Intent{in}
}

// Garbage replaces the payload of crypto- and value-bearing intents with
// random bytes: malformed proposals, threshold-signature and decryption
// shares that fail, broken certificates. A share keeps its first three
// bytes — the index that names its maker, which a receiver holds to the
// sender's id, and its value's length — so that it is taken as the
// sender's: a bare share, signature or decryption, then joins a
// combination and fails it, which turns its tally to proofs, and a full
// share is verified. The
// defense is verification at every trust boundary: share, combination,
// proof and certificate checks discard the garbage (counted in
// Stats.Rejected), and proposals that deliver as garbage are rejected by
// the commit layer's decoders.
type Garbage struct{}

// Name implements Behavior.
func (Garbage) Name() string { return NameGarbage }

// Rewrite implements Behavior.
func (Garbage) Rewrite(ctx Ctx, in core.Intent) []core.Intent {
	switch in.Phase {
	case packet.PhaseInitial, packet.PhaseRepair, packet.PhaseEcho, packet.PhaseReady,
		packet.PhaseDone, packet.PhaseShare, packet.PhaseDecShare, packet.PhaseFinish:
	default:
		return []core.Intent{in}
	}
	out := in
	// Keep the length so fragment assembly still completes (into garbage);
	// pad tiny payloads so decoders have something to choke on.
	n := len(in.Data)
	if n < 8 {
		n = 8
	}
	buf := make([]byte, n)
	ctx.Rand.Read(buf)
	switch in.Phase {
	case packet.PhaseEcho, packet.PhaseDone, packet.PhaseShare, packet.PhaseDecShare:
		copy(buf, in.Data[:min(3, len(in.Data))])
	}
	out.Data = buf
	return []core.Intent{out}
}

// FlipVotes votes against the node's own estimate in ABA: BVAL, AUX,
// Bracha vote-RBC views, and DECIDED termination claims all go out
// inverted while the node's local state keeps the true values. The
// defenses are the 2f+1 vote quorums (f flipped votes cannot fabricate
// one) and the DECIDED gadget's f+1-matching-claims rule, which always
// contains at least one honest decider.
type FlipVotes struct{}

// Name implements Behavior.
func (FlipVotes) Name() string { return NameFlipVotes }

// Rewrite implements Behavior.
func (FlipVotes) Rewrite(ctx Ctx, in core.Intent) []core.Intent {
	if in.Kind != packet.KindABA || len(in.Data) == 0 {
		return []core.Intent{in}
	}
	out := in
	switch in.Phase {
	case packet.PhaseBval:
		// Bit 0 claims "I sent BVAL(0)", bit 1 "I sent BVAL(1)": swap them.
		bits := in.Data[0]
		out.Data = []byte{(bits&1)<<1 | (bits>>1)&1}
	case packet.PhaseAux, packet.PhaseDecided:
		out.Data = []byte{in.Data[0] ^ 1}
	case packet.PhaseVote1, packet.PhaseVote2, packet.PhaseVote3:
		// The Bracha view is [myVote | echo[N] | ready[N]] with votes in
		// {0, 1, 2=bot, 3=absent}: flip every binary vote, keep the rest.
		buf := make([]byte, len(in.Data))
		for i, v := range in.Data {
			if v <= 1 {
				v ^= 1
			}
			buf[i] = v
		}
		out.Data = buf
	}
	return []core.Intent{out}
}
