package component

import (
	"repro/internal/crypto/threshsig"
)

// thresholdSig is one threshold signature in the making: the shares
// gathered so far over msg, and the full signature once it exists —
// combined here, or accepted from a peer that combined it. CBC's quorum
// certificate and PRBC's DONE proof are both one of these, embedded by
// value in the slot.
type thresholdSig struct {
	msg       []byte // what the shares sign; nil until this node knows it
	shares    map[int]*threshsig.SigShare
	combining bool
	sig       []byte
}

// sigCollector turns signature shares into thresholdSigs for every slot of
// one component: shares verify and combine under key, key.K of them make a
// signature, and combined runs once a slot's signature is set.
type sigCollector struct {
	env      *Env
	key      *threshsig.PublicKey
	combined func(slot int)
}

// offer takes node w's encoded share for a slot whose message is known.
func (c *sigCollector) offer(t *thresholdSig, slot, w int, raw []byte) {
	if _, dup := t.shares[w]; dup || t.sig != nil {
		return
	}
	share, err := DecodeSigShare(raw)
	if err != nil {
		c.env.Reject()
		return
	}
	// The verifier snapshot shares the per-message fixed work (hash and
	// Delta power) across all share checks; virtual time still charges a
	// full TSVerifyShare per share.
	ver := c.key.Verifier(t.msg)
	c.env.Exec(c.env.Suite.Cost.TSVerifyShare, func() {
		if _, dup := t.shares[w]; dup || t.sig != nil {
			return
		}
		if err := ver.Verify(share); err != nil {
			c.env.Reject() // Byzantine share: discard
			return
		}
		c.add(t, slot, w, share)
	})
}

// add records a verified share (a peer's, or this node's own) and combines
// once the threshold is reached.
func (c *sigCollector) add(t *thresholdSig, slot, w int, share *threshsig.SigShare) {
	if _, dup := t.shares[w]; dup || t.sig != nil {
		return
	}
	if t.shares == nil {
		t.shares = make(map[int]*threshsig.SigShare)
	}
	t.shares[w] = share
	if len(t.shares) < c.key.K || t.combining {
		return
	}
	t.combining = true
	shares := make([]*threshsig.SigShare, 0, len(t.shares))
	for _, sh := range t.shares {
		shares = append(shares, sh)
	}
	c.env.Exec(c.env.Suite.Cost.TSCombine, func() {
		sig, err := c.key.Combine(t.msg, shares)
		if err != nil {
			// A bad share slipped through; drop them all and wait for more.
			t.combining = false
			t.shares = nil
			return
		}
		t.sig = sig.Bytes()
		c.combined(slot)
	})
}
