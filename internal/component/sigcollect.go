package component

import (
	"time"

	"repro/internal/core"
	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
)

// scheme is a threshold scheme as the share collector sees it: how this
// node's share of a subject X (the message signed, the coin named, the
// ciphertext opened) is made and encoded, how a peer's is decoded and
// verified, how k verified ones combine into a V, and what each step
// costs in virtual time.
type scheme[X, S, V any] struct {
	k                                  int
	shareCost, verifyCost, combineCost time.Duration

	share   func(x X) (S, error)
	encode  func(sh S) []byte
	decode  func(raw []byte) (S, error)
	verify  func(x X, sh S) error
	combine func(x X, shares []S) (V, error)
}

// tally is one threshold value in the making: the verified shares
// gathered so far, and the value once it exists — combined here, or
// accepted from a peer that combined it. CBC's quorum certificate, PRBC's
// DONE proof, CachinABA's coin and the Decryptor's plaintext are each one
// of these, embedded by value in the slot.
type tally[X, S, V any] struct {
	subject X    // what the shares are shares of
	open    bool // subject is known: shares can be verified

	// own is this node's encoded share, for a peer that lost its state and
	// asks for it back. It is kept beside the gathered shares, which a
	// failed combination drops — but only a share that counted here is
	// kept: one made after the threshold was reached is published once and
	// never re-served (the sweeps' crash-recovery rows are pinned to that).
	own []byte
	// parked holds, by peer, the first copy of a share that arrived ahead
	// of the subject (nil: none; a copy is non-nil even when empty).
	parked [][]byte
	// shares holds the verified shares by peer, nShares of them.
	shares    []heldShare[S]
	nShares   int
	combining bool
	done      bool
	value     V
}

// heldShare is one peer's place in a tally.
type heldShare[S any] struct {
	share S
	held  bool
}

// holds reports whether node w's verified share is in.
func (t *tally[X, S, V]) holds(w int) bool { return t.shares != nil && t.shares[w].held }

// collector runs every tally of one component through the one
// verify → collect → combine machine, and calls combined once a tally's
// value was combined here.
type collector[X, S, V any] struct {
	scheme[X, S, V]
	env      *Env
	combined func(id int, value V)
}

// begin fixes what t's shares are shares of, publishes this node's own
// share under key — counting it here too if collect — and takes up the
// shares that were waiting for the subject.
func (c *collector[X, S, V]) begin(t *tally[X, S, V], id int, x X, key core.IntentKey, collect bool) {
	t.subject, t.open = x, true
	c.contribute(t, id, key, collect)
	// Parked shares drain in node order.
	for w, raw := range t.parked {
		if raw != nil {
			c.offer(t, id, w, raw)
		}
	}
	t.parked = nil
}

// contribute makes this node's share of t's subject and publishes it.
func (c *collector[X, S, V]) contribute(t *tally[X, S, V], id int, key core.IntentKey, collect bool) {
	c.env.Exec(c.shareCost, func() {
		share, err := c.share(t.subject)
		if err != nil {
			// No share of this subject can be made, by anyone: its owner
			// must not wait on the tally. ACS never gets here —
			// DecodeCiphertext applies the predicate DecryptShare does.
			return
		}
		raw := c.encode(share)
		c.env.T.Update(core.Intent{IntentKey: key, Data: raw})
		if collect && c.add(t, id, c.env.Me, share) {
			t.own = raw
		}
	})
}

// offer takes the encoded share of node w, which the caller has checked
// is one of the N.
func (c *collector[X, S, V]) offer(t *tally[X, S, V], id, w int, raw []byte) {
	if t.holds(w) || t.done {
		return
	}
	if !t.open {
		// Nothing to verify against yet: park the peer's first copy.
		if t.parked == nil {
			t.parked = make([][]byte, c.env.N)
		}
		if t.parked[w] == nil {
			t.parked[w] = append([]byte{}, raw...)
		}
		return
	}
	share, err := c.decode(raw)
	if err != nil {
		c.env.Reject()
		return
	}
	c.env.Exec(c.verifyCost, func() {
		if t.holds(w) || t.done {
			return
		}
		if err := c.verify(t.subject, share); err != nil {
			c.env.Reject() // Byzantine share: discard
			return
		}
		c.add(t, id, w, share)
	})
}

// add records a verified share (a peer's, or this node's own) unless it
// comes too late to count, and combines once the threshold is reached.
// The shares go to combine in node order, so a given set of contributors
// is always the same argument.
func (c *collector[X, S, V]) add(t *tally[X, S, V], id, w int, share S) bool {
	if t.holds(w) || t.combining || t.done {
		return false
	}
	if t.shares == nil {
		t.shares = make([]heldShare[S], c.env.N)
	}
	t.shares[w] = heldShare[S]{share, true}
	t.nShares++
	if t.nShares < c.k {
		return true
	}
	t.combining = true
	shares := make([]S, 0, t.nShares)
	for _, h := range t.shares {
		if h.held {
			shares = append(shares, h.share)
		}
	}
	c.env.Exec(c.combineCost, func() {
		value, err := c.combine(t.subject, shares)
		t.combining = false
		if err != nil {
			// A bad share slipped through; drop them all and wait for more.
			t.shares, t.nShares = nil, 0
			return
		}
		t.value, t.done = value, true
		c.combined(id, value)
	})
	return true
}

// must wraps share-making that fails only when the node's randomness does.
func must[S any](sh S, err error) (S, error) {
	if err != nil {
		panic("component: making a threshold share: " + err.Error())
	}
	return sh, nil
}

// sigScheme is threshold signing under one of the suite's keys: shares of
// a message combine into the signature's bytes.
func sigScheme(env *Env, key *threshsig.PublicKey, priv threshsig.PrivateShare) scheme[[]byte, *threshsig.SigShare, []byte] {
	cost := env.Suite.Cost
	return scheme[[]byte, *threshsig.SigShare, []byte]{
		k: key.K, shareCost: cost.TSSign, verifyCost: cost.TSVerifyShare, combineCost: cost.TSCombine,
		share:  func(msg []byte) (*threshsig.SigShare, error) { return must(key.Sign(priv, msg, env.Rand)) },
		encode: EncodeSigShare,
		decode: DecodeSigShare,
		verify: key.VerifyShare,
		combine: func(msg []byte, shares []*threshsig.SigShare) ([]byte, error) {
			sig, err := key.Combine(msg, shares)
			if err != nil {
				return nil, err
			}
			return sig.Bytes(), nil
		},
	}
}

// flipScheme is the suite's threshold coin flipping: shares of a coin's
// name combine into its digest.
func flipScheme(env *Env) scheme[[]byte, *threshcoin.CoinShare, [32]byte] {
	cost, key := env.Suite.Cost, env.Suite.TC
	return scheme[[]byte, *threshcoin.CoinShare, [32]byte]{
		k: key.K, shareCost: cost.TCShare, verifyCost: cost.TCVerifyShare, combineCost: cost.TCCombine,
		share: func(name []byte) (*threshcoin.CoinShare, error) {
			return must(key.Share(env.Suite.TCShare, name, env.Rand))
		},
		encode:  EncodeDLShare,
		decode:  DecodeDLShare,
		verify:  key.VerifyShare,
		combine: key.Combine,
	}
}

// decScheme is the suite's threshold decryption: shares of a ciphertext
// combine into its plaintext.
func decScheme(env *Env) scheme[*threshenc.Ciphertext, *threshenc.DecShare, []byte] {
	cost, key := env.Suite.Cost, env.Suite.TE
	return scheme[*threshenc.Ciphertext, *threshenc.DecShare, []byte]{
		k: key.K, shareCost: cost.TEDecShare, verifyCost: cost.TEVerifyShare, combineCost: cost.TECombine,
		share: func(ct *threshenc.Ciphertext) (*threshenc.DecShare, error) {
			return key.DecryptShare(env.Suite.TEShare, ct, env.Rand)
		},
		encode:  EncodeDLShare,
		decode:  DecodeDLShare,
		verify:  key.VerifyShare,
		combine: key.Combine,
	}
}
