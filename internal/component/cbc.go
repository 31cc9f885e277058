package component

import (
	"encoding/binary"
	"math/big"

	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

func bigFromBytes(b []byte) *big.Int { return new(big.Int).SetBytes(b) }

// CBC runs N parallel consistent-broadcast instances (Fig. 1b): the leader
// disseminates its proposal (INITIAL), every node broadcasts a
// 2f+1-threshold signature share over it (ECHO, the paper's N-to-1 round),
// and the quorum certificate they combine into goes out as the FINISH.
// On the shared channel every node overhears the shares, so every node
// that holds the value combines them — not only the leader — and delivers
// without waiting for anyone's FINISH. Delivery of (value, certificate)
// proves 2f+1 nodes received the value.
//
// Every node that holds a slot's certificate can serve it: a combiner
// publishes its FINISH, and a node that delivered from a peer's FINISH
// keeps that FINISH held, sent only once a peer's FINISH row shows the
// slot undone — a peer that restarted, one that lost the frames, or one
// whose agreement accepted a slot it never saw. That row is CBC's
// totality; handleFinish then asks for a value it lacks by its REPAIR row,
// and every node that holds the value serves its fragments.
//
// An honest node echoes only a value its validity predicate accepts
// (external validity, as Dumbo2's MVBA checks it): a certificate then
// means at least f+1 honest nodes found the value valid. A value the
// predicate cannot judge yet waits, unechoed, until the engine calls
// Recheck; a FINISH that verifies still delivers it.
//
// The -small variant (Fig. 5b) inlines tiny proposals (Dumbo's CBC-commit
// carries a 2f+1-sized node-ID list).
//
// This is the only certified-broadcast machine: Dumbo's two CBCs and
// Alea's VCBC queues are instances of it that differ in wire kind and,
// for Dumbo's CBC-value, the validity predicate.
type CBC struct {
	dissemination
	echoes  collector[[]byte, *threshsig.SigShare, []byte]
	echoTag string
	slots   []cbcSlot

	valid     func(slot int, value []byte) Verdict
	onDeliver func(slot int, value []byte, cert []byte)

	finDone packet.BitSet // compressed O(N) NACK: slot delivered, the one record of it
}

type cbcSlot struct {
	valueSlot

	// cert is the quorum certificate over the value this node signed;
	// shares that arrive ahead of the value park in it.
	cert     tally[[]byte, *threshsig.SigShare, []byte]
	certHash Hash8
	// pending says the predicate could not judge the assembled value yet:
	// this node has not echoed it, and Recheck asks again.
	pending bool
}

// Verdict is a validity predicate's answer about a value.
type Verdict uint8

const (
	Accept Verdict = iota // valid: echo it
	Wait                  // cannot tell yet: ask again at Recheck
	Refuse                // invalid: never echo it
)

// CBCOptions configures a CBC component.
type CBCOptions struct {
	Kind      packet.Kind // KindCBCValue, KindCBCCommit, or KindVCBC
	Slots     int
	Small     bool
	FragSize  int
	OnDeliver func(slot int, value []byte, cert []byte)
	Valid     func(slot int, value []byte) Verdict // what this node echoes; nil: every value
}

// NewCBC creates the component and registers it on the transport.
func NewCBC(env *Env, opts CBCOptions) *CBC {
	c := &CBC{
		echoTag:   "cbc-echo",
		valid:     opts.Valid,
		onDeliver: opts.OnDeliver,
		finDone:   packet.NewBitSet(opts.Slots),
	}
	if opts.Kind == packet.KindVCBC {
		// Each wire kind signs under its own tag. The tag decides every
		// certificate's value, and through big.Int.Bytes() its length on
		// the air, so it is part of the wire format.
		c.echoTag = "vcbc-echo"
	}
	c.echoes = collector[[]byte, *threshsig.SigShare, []byte]{
		scheme: sigScheme(env, true), env: env, combined: c.certified,
	}
	c.slots = make([]cbcSlot, opts.Slots)
	c.dissemination = newDissemination(env, opts.Kind, opts.Small, opts.FragSize, opts.Slots)
	env.T.SetNack(opts.Kind, packet.PhaseFinish, c.finDone)
	env.T.Register(opts.Kind, c)
	return c
}

// Delivered reports whether a slot completed: its FINISH row bit.
func (c *CBC) Delivered(slot int) bool { return c.finDone.Get(slot) }

// DeliveredCount returns the number of completed slots.
func (c *CBC) DeliveredCount() int { return c.finDone.Count() }

// Value returns a delivered slot's value (nil before delivery).
func (c *CBC) Value(slot int) []byte {
	if !c.Delivered(slot) {
		return nil
	}
	return c.slots[slot].value
}

// shareMessage is the string the ECHO threshold shares sign,
// domain-separated per wire kind by the tag and the kind byte.
func (c *CBC) shareMessage(slot int, h Hash8) []byte {
	msg := make([]byte, 0, 32)
	msg = append(msg, c.echoTag...)
	msg = append(msg, byte(c.kind))
	msg = binary.BigEndian.AppendUint32(msg, c.env.Session)
	msg = binary.BigEndian.AppendUint16(msg, c.env.Epoch)
	msg = append(msg, byte(slot))
	return append(msg, h[:]...)
}

// Propose starts instance slot with this node as leader. A leader that
// missed its own certificate gets it back through the FINISH row: a peer
// that holds the certificate serves it to a row that shows the slot
// undone.
func (c *CBC) Propose(slot int, value []byte) {
	c.acceptValue(slot, c.propose(slot, value))
}

func (c *CBC) acceptValue(slot int, value []byte) {
	if c.held.Get(slot) {
		return
	}
	c.hold(slot, &c.slots[slot].valueSlot, value)
	c.echo(slot)
	c.deliver(slot)
}

// echo opens the slot's ECHO tally, which publishes this node's share,
// once the validity predicate accepts the assembled value. Until then the
// peers' shares park in the tally. A refused value is counted in
// Stats.Rejected and never echoed.
func (c *CBC) echo(slot int) {
	s := &c.slots[slot]
	// A node signs once per slot, and only a value it holds: a FINISH over
	// another hash may have dropped the one it was judging.
	if s.cert.open || c.Delivered(slot) || !c.held.Get(slot) {
		return
	}
	verdict := Accept
	if c.valid != nil {
		verdict = c.valid(slot, s.value)
	}
	s.pending = verdict == Wait
	switch verdict {
	case Accept:
		c.echoes.begin(&s.cert, slot, c.shareMessage(slot, HashValue(s.value)),
			core.IntentKey{Kind: c.kind, Phase: packet.PhaseEcho, Slot: uint8(slot), Sub: uint8(c.env.Me)})
	case Refuse:
		c.env.Reject()
	}
}

// Recheck asks the validity predicate again about every value it left
// pending: the engine calls it when what the predicate reads has changed.
func (c *CBC) Recheck() {
	for slot := range c.slots {
		if c.slots[slot].pending {
			c.echo(slot)
		}
	}
}

// HandleSection implements core.Handler.
func (c *CBC) HandleSection(from uint16, sec packet.Section) {
	w, ok := c.env.peer(from)
	if !ok {
		return
	}
	for _, e := range sec.Entries {
		slot := int(e.Slot)
		if slot >= len(c.slots) {
			continue
		}
		s := &c.slots[slot]
		switch sec.Phase {
		case packet.PhaseInitial, packet.PhaseRepair:
			if value, whole := c.receive(slot, &s.valueSlot, w, sec.Phase, e); whole {
				c.acceptValue(slot, value)
			}
		case packet.PhaseEcho:
			// Every node combines the shares it overhears, over the value
			// it holds; until it holds one they park.
			c.echoes.offer(&s.cert, slot, w, e.Flags, e.Data)
		case packet.PhaseFinish:
			c.handleFinish(slot, e.Data)
		}
	}
}

// certified runs once the ECHO shares combined here.
func (c *CBC) certified(slot int, _ []byte) {
	s := &c.slots[slot]
	s.certHash = HashValue(s.value)
	// Anyone holding the certificate can publish it: it verifies under
	// the threshold key regardless of the sender.
	c.env.T.Update(c.finish(slot))
	c.deliver(slot)
}

// finish is the slot's FINISH intent: its certificate and the hash it
// certifies.
func (c *CBC) finish(slot int) core.Intent {
	s := &c.slots[slot]
	return core.Intent{
		IntentKey: core.IntentKey{Kind: c.kind, Phase: packet.PhaseFinish, Slot: uint8(slot)},
		Data:      EncodeFinish(s.certHash, s.cert.value),
	}
}

func (c *CBC) handleFinish(slot int, raw []byte) {
	s := &c.slots[slot]
	if c.Delivered(slot) {
		return
	}
	h, cert, err := DecodeFinish(raw)
	if err != nil {
		c.env.Reject()
		return
	}
	msg := c.shareMessage(slot, h)
	env := c.env
	env.Exec(env.Suite.Cost.TSVerify, func() {
		if c.Delivered(slot) {
			return
		}
		if _, err := c.echoes.check(msg, cert); err != nil {
			env.Reject()
			return
		}
		s.cert.value, s.cert.done = cert, true
		s.certHash = h
		// Keep the certificate servable, off the air until a peer's
		// FINISH row asks for it.
		env.T.Hold(c.finish(slot))
		if c.held.Get(slot) && HashValue(s.value) != h {
			// A certificate for a different value than we assembled: the
			// certificate wins (2f+1 nodes vouched for it).
			c.drop(slot, &s.valueSlot)
		}
		if !c.held.Get(slot) {
			c.want(slot)
			return
		}
		c.deliver(slot)
	})
}

func (c *CBC) deliver(slot int) {
	s := &c.slots[slot]
	if c.Delivered(slot) || !s.cert.done || !c.held.Get(slot) {
		return
	}
	if HashValue(s.value) != s.certHash {
		// Repair supplied a value that does not match the certificate:
		// drop it and ask again.
		c.drop(slot, &s.valueSlot)
		c.want(slot)
		return
	}
	c.finDone.Set(slot)
	c.env.T.SetNack(c.kind, packet.PhaseFinish, c.finDone)
	c.env.T.Remove(core.IntentKey{Kind: c.kind, Phase: packet.PhaseEcho, Slot: uint8(slot), Sub: uint8(c.env.Me)})
	if c.onDeliver != nil {
		c.onDeliver(slot, s.value, s.cert.value)
	}
}
