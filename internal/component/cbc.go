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
// disseminates its proposal (INITIAL), every node returns a 2f+1-threshold
// signature share over it (ECHO, the paper's N-to-1 round), and the leader
// combines and broadcasts the quorum certificate (FINISH). Delivery of
// (value, certificate) proves 2f+1 nodes received the value.
//
// The -small variant (Fig. 5b) inlines tiny proposals (Dumbo's CBC-commit
// carries a 2f+1-sized node-ID list).
//
// This is the only certified-broadcast machine: Dumbo's two CBCs and
// Alea's VCBC queues are instances of it that differ in wire kind alone.
type CBC struct {
	dissemination
	echoes  collector[[]byte, *threshsig.SigShare, []byte]
	echoTag string
	slots   []*cbcSlot

	onDeliver func(slot int, value []byte, cert []byte)

	finDone packet.BitSet // compressed O(N) NACK: slot delivered
}

type cbcSlot struct {
	valueSlot

	// cert is the quorum certificate over the value this node signed;
	// shares are gathered by the leader only.
	cert      tally[[]byte, *threshsig.SigShare, []byte]
	certHash  Hash8
	delivered bool
}

// CBCOptions configures a CBC component.
type CBCOptions struct {
	Kind      packet.Kind // KindCBCValue, KindCBCCommit, or KindVCBC
	Slots     int
	Small     bool
	FragSize  int
	OnDeliver func(slot int, value []byte, cert []byte)
}

// NewCBC creates the component and registers it on the transport.
func NewCBC(env *Env, opts CBCOptions) *CBC {
	c := &CBC{
		echoTag:   "cbc-echo",
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
		scheme: sigScheme(env, env.Suite.TSHigh, env.Suite.TSHighShare), env: env, combined: c.certified,
	}
	for i := 0; i < opts.Slots; i++ {
		c.slots = append(c.slots, &cbcSlot{})
	}
	c.dissemination = newDissemination(env, opts.Kind, opts.Small, opts.FragSize, opts.Slots)
	env.T.SetNack(opts.Kind, packet.PhaseFinish, c.finDone)
	env.T.Register(opts.Kind, c)
	return c
}

// Delivered reports whether a slot completed.
func (c *CBC) Delivered(slot int) bool { return c.slots[slot].delivered }

// DeliveredCount returns the number of completed slots.
func (c *CBC) DeliveredCount() int {
	n := 0
	for _, s := range c.slots {
		if s.delivered {
			n++
		}
	}
	return n
}

// Value returns a delivered slot's value (nil before delivery).
func (c *CBC) Value(slot int) []byte {
	if !c.slots[slot].delivered {
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

// Propose starts instance slot with this node as leader. A logged value
// (dissemination.propose) pulls its certificate back: peers that delivered
// it removed their echo intents, and the FINISH died with our transport.
func (c *CBC) Propose(slot int, value []byte) {
	value, replay := c.propose(slot, value)
	c.acceptValue(slot, value)
	if replay {
		c.Fetch(slot)
	}
}

func (c *CBC) acceptValue(slot int, value []byte) {
	s := c.slots[slot]
	if s.assembled {
		return
	}
	c.hold(slot, &s.valueSlot, value)
	if !s.cert.open { // a node signs once per slot
		c.echoes.begin(&s.cert, slot, c.shareMessage(slot, HashValue(value)),
			core.IntentKey{Kind: c.kind, Phase: packet.PhaseEcho, Slot: uint8(slot), Sub: uint8(c.env.Me)},
			c.leader(slot) == c.env.Me)
	}
	c.deliver(slot)
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
		s := c.slots[slot]
		switch sec.Phase {
		case packet.PhaseInitial:
			if value, whole := c.receive(slot, &s.valueSlot, w, e); whole {
				c.acceptValue(slot, value)
			}
		case packet.PhaseEcho:
			// Only the slot's leader combines shares, and only over the
			// value it proposed.
			if c.leader(slot) == c.env.Me && s.assembled {
				c.echoes.offer(&s.cert, slot, w, e.Flags, e.Data)
			}
		case packet.PhaseFinish:
			c.handleFinish(slot, e.Data)
		case packet.PhaseRepair:
			c.handleRepairRequest(slot, e.Data)
		}
	}
}

// certified runs at the leader once the ECHO shares combined.
func (c *CBC) certified(slot int, _ []byte) {
	s := c.slots[slot]
	s.certHash = HashValue(s.value)
	c.publishFinish(slot)
	c.deliver(slot)
}

// publishFinish puts a slot's certificate on the air. Anyone holding it
// can: it verifies under the threshold key regardless of the sender.
func (c *CBC) publishFinish(slot int) {
	s := c.slots[slot]
	c.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: c.kind, Phase: packet.PhaseFinish, Slot: uint8(slot)},
		Data:      EncodeFinish(s.certHash, s.cert.value),
	})
}

func (c *CBC) handleFinish(slot int, raw []byte) {
	s := c.slots[slot]
	if s.delivered {
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
		if s.delivered {
			return
		}
		if _, err := c.echoes.check(msg, cert); err != nil {
			env.Reject()
			return
		}
		s.cert.value, s.cert.done = cert, true
		s.certHash = h
		if s.assembled && HashValue(s.value) != h {
			// A certificate for a different value than we assembled: the
			// certificate wins (2f+1 nodes vouched for it).
			c.drop(slot, &s.valueSlot)
		}
		if !s.assembled {
			c.requestRepair(slot, &s.valueSlot)
			return
		}
		c.deliver(slot)
	})
}

func (c *CBC) deliver(slot int) {
	s := c.slots[slot]
	if s.delivered || !s.cert.done || !s.assembled {
		return
	}
	if HashValue(s.value) != s.certHash {
		// Repair supplied a value that does not match the certificate:
		// drop it and ask again, advertising nothing as held.
		c.drop(slot, &s.valueSlot)
		c.requestRepair(slot, &s.valueSlot)
		return
	}
	s.delivered = true
	c.finDone.Set(slot)
	c.env.T.SetNack(c.kind, packet.PhaseFinish, c.finDone)
	c.env.T.Remove(core.IntentKey{Kind: c.kind, Phase: packet.PhaseEcho, Slot: uint8(slot), Sub: uint8(c.env.Me)})
	c.repairDone(slot, &s.valueSlot)
	if c.onDeliver != nil {
		c.onDeliver(slot, s.value, s.cert.value)
	}
}

// Fetch requests a slot's value and certificate from peers. CBC has no
// totality of its own: Dumbo and Alea pull a candidate their agreement
// accepted but this node missed, and Propose the certificate of a logged
// value it re-proposes (a node holding the value asks for that alone).
func (c *CBC) Fetch(slot int) {
	c.requestRepair(slot, &c.slots[slot].valueSlot)
}

func (c *CBC) handleRepairRequest(slot int, have packet.BitSet) {
	s := c.slots[slot]
	if !c.repairDue(&s.valueSlot) {
		return
	}
	delay := c.repairJitter()
	if s.cert.done {
		c.publishFinish(slot)
	}
	c.reserve(slot, &s.valueSlot, have, delay)
}
