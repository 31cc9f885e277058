package component

import (
	"bytes"
	"errors"
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
//
// A scheme whose combined value anyone can check on its own — a threshold
// signature — also has a certificate: combine returns it beside the value,
// and check takes one from a peer for certCost and gives back the value it
// proves. A scheme whose value can be checked only by its combiner
// (decryption, against the ciphertext's key commitment) or only through
// its shares (threshold coin flipping) has check nil and combines to a nil
// certificate.
//
// A scheme whose combination can be checked — signing and decryption —
// sends its shares bare, without the proof that lets one be verified on
// its own: combining them and checking the value once costs less than
// verifying each, and a failed combination brings the proofs back
// (collector.toProofs). bare encodes a share so, and decodeBare parses
// one, checking what can be checked without the proof; combineBare
// combines kBare bare shares, at certCost on top of combineCost. A
// signature is checked against the public key, so k bare shares do. A
// decryption is checked only against the encryptor's key commitment,
// which one Byzantine share can steer k shares to meet: it takes 2k−1
// bare shares that must agree (threshenc.CombineBare), so that honest
// ones fix the value, and a tally that holds k of them turns to proofs if
// the rest do not come within bareWait. Coin flipping has neither: its shares always carry
// their proofs, because nothing else can vouch for its value.
//
// A combination may succeed with the zero V, from shares every honest node
// would combine alike: the subject has no value. Only decryption gives it,
// for a ciphertext whose commitment is not its key's, and counts the
// rejection itself.
type scheme[X, S, V any] struct {
	k, kBare                                     int
	shareCost, verifyCost, combineCost, certCost time.Duration

	share       func(x X) (S, error)
	encode      func(sh S) []byte
	decode      func(raw []byte) (S, error)
	bare        func(sh S) []byte
	decodeBare  func(raw []byte) (S, error)
	verify      func(x X, sh S) error
	combine     func(x X, shares []S) (value V, cert []byte, err error)
	combineBare func(x X, shares []S) (value V, cert []byte, err error)
	check       func(x X, cert []byte) (V, error)
}

// resendEvery is the transport's base re-send period.
var resendEvery = core.DefaultConfig(true).RetxInterval

// bareWait is how long a tally that holds k bare shares, enough for a
// verified combination, waits for the kBare a bare one takes before it
// turns to proofs: the last honest shares may never come (a peer may
// crash and stay down), and k verified ones do. Two base re-send periods:
// a share lost once is re-sent within them. The wait runs on the node's
// clock (core.Transport.After), so a node that is down does not turn to
// proofs until it is back.
var bareWait = 2 * resendEvery

// The flags of an entry of a share phase. certFlag marks one that carries
// the certificate of the combined value instead of its sender's share;
// proofFlag marks a full share of a scheme that sends its shares bare. A
// share entry without flags is bare, or, under a scheme without a bare
// form, full.
const (
	certFlag  uint8 = 1
	proofFlag uint8 = 2
)

// tally is one threshold value in the making: the shares gathered so far
// (verified, unless they came bare), and the value once it exists —
// combined here, or accepted from a peer that combined it. CBC's quorum
// certificate is one of these, embedded by value in its slot, and each of
// CachinABA's coins one, in its coin table; PRBC's DONE proof, the
// Decryptor's plaintext and the cut certificate are a slot of a
// shareSlots.
type tally[X, S, V any] struct {
	subject X    // what the shares are shares of
	open    bool // subject is known: shares can be verified

	// mine is this node's share once made, counted or not, which goes on
	// the air again with its proof when the tally turns to proofs. Under a
	// scheme that sends its shares bare, mine is made without its proof,
	// which its full encoding makes — so a share whose tally never turns
	// to proofs never pays for one.
	mine heldShare[S]
	// proofs says only full shares count, each verified on its own: a
	// combination of bare shares failed here, or a peer's full share came
	// (a peer's combination failed). Set at most once, under a scheme that
	// sends its shares bare.
	proofs bool
	// nextFull is when a bare share that comes after the tally turned to
	// proofs may next have this node's full share re-sent: once per base
	// period, however often peers repeat themselves.
	nextFull time.Duration
	// cert is the value's certificate once the value exists, if the scheme
	// has one: it takes the place of this node's share on the air, under
	// key (published: this node has released its share there).
	cert      []byte
	key       core.IntentKey
	published bool
	// parked holds, by peer, the first copy of a share that arrived ahead
	// of the subject (nil: none; a copy is non-nil even when empty) — all
	// bare or all full, as proofs says — and parkedCert the first
	// certificate that did.
	parked     [][]byte
	parkedCert []byte
	// checking says a certificate is being checked (one at a time); the
	// shares parked ahead of the subject wait for its verdict.
	checking bool
	// shares holds the gathered shares by peer, nShares of them.
	shares    []heldShare[S]
	nShares   int
	combining bool
	// combiningBare says the combination under way is of bare shares, by
	// combineBare: the tally had not turned to proofs when it began.
	combiningBare bool
	done          bool
	value         V
}

// heldShare is one peer's place in a tally.
type heldShare[S any] struct {
	share S
	held  bool
}

// holds reports whether node w's share is in.
func (t *tally[X, S, V]) holds(w int) bool { return t.shares != nil && t.shares[w].held }

// certIntent is t's certificate in the place of this node's share.
func (t *tally[X, S, V]) certIntent() core.Intent {
	return core.Intent{IntentKey: t.key, Flags: certFlag, Data: t.cert}
}

// shareFlags are the flags this node's share of t goes on the air with.
func (t *tally[X, S, V]) shareFlags() uint8 {
	if t.proofs {
		return proofFlag
	}
	return 0
}

// collector runs every tally of one component through the one
// collect → combine machine — each share verified as it comes, or, bare,
// through the combination it joins — and calls combined once a tally's
// value exists: combined here, or taken from a peer's certificate.
type collector[X, S, V any] struct {
	scheme[X, S, V]
	env      *Env
	combined func(id int, value V)
}

// begin fixes what t's shares are shares of, publishes this node's own
// share under key, counting it here too, and takes up what was waiting
// for the subject: a parked certificate first, whose check may settle the
// tally, and the parked shares unless one is under way.
func (c *collector[X, S, V]) begin(t *tally[X, S, V], id int, x X, key core.IntentKey) {
	t.subject, t.open = x, true
	if raw := t.parkedCert; raw != nil {
		t.parkedCert = nil
		c.checkCert(t, id, raw)
	}
	c.contribute(t, id, key)
	if !t.checking {
		c.drain(t, id)
	}
}

// drain offers the parked shares, in node order.
func (c *collector[X, S, V]) drain(t *tally[X, S, V], id int) {
	for w, raw := range t.parked {
		if raw != nil {
			c.offer(t, id, w, t.shareFlags(), raw)
		}
	}
	t.parked = nil
}

// contribute makes this node's share of t's subject, publishes it under
// key and counts it — or, once the value exists and has a certificate,
// publishes that.
func (c *collector[X, S, V]) contribute(t *tally[X, S, V], id int, key core.IntentKey) {
	t.key, t.published = key, true
	if t.cert != nil {
		c.env.T.Update(t.certIntent())
		return
	}
	c.env.Exec(c.shareCost, func() {
		if t.cert != nil { // a peer's certificate came while the share was made
			c.env.T.Update(t.certIntent())
			return
		}
		share, err := c.share(t.subject)
		if err != nil {
			// No share of this subject can be made, by anyone: its owner
			// must not wait on the tally. ACS never gets here —
			// DecodeCiphertext applies the predicate DecryptShareBare does.
			return
		}
		t.mine = heldShare[S]{share, true}
		c.env.T.Update(core.Intent{IntentKey: key, Flags: t.shareFlags(), Data: c.onAir(t, share)})
		c.add(t, id, c.env.Me, share)
	})
}

// onAir encodes this node's share of t as it goes on the air: bare, unless
// the tally has turned to proofs or the scheme has no bare form.
func (c *collector[X, S, V]) onAir(t *tally[X, S, V], share S) []byte {
	if c.bare == nil || t.proofs {
		return c.encode(share)
	}
	return c.bare(share)
}

// offer takes an entry of node w, which the caller has checked is one of
// the N: its encoded share, bare or (proofFlag) full, or with certFlag set
// a certificate.
//
// A share's first byte is its index, which is its maker's id + 1: one that
// names another node than its sender is a replay or garbage, and is
// rejected before anything is spent on it. A bare share is taken on sight,
// unverified and free: the combination it goes into is what is checked
// (add). A full share is verified, at its cost, and under a scheme that
// sends its shares bare it turns the tally to proofs: its sender's
// combination failed. Under a scheme without certificates it does so
// after the value exists too: the sender now counts only full shares, and
// with no certificate to answer it with, this node's share must go on the
// air again in full.
func (c *collector[X, S, V]) offer(t *tally[X, S, V], id, w int, flags uint8, raw []byte) {
	if flags&certFlag != 0 {
		c.offerCert(t, id, raw)
		return
	}
	if len(raw) == 0 || int(raw[0]) != w+1 {
		c.env.Reject()
		return
	}
	bare := c.bare != nil && flags&proofFlag == 0
	if c.bare != nil && !bare && (!t.done || c.check == nil) {
		c.toProofs(t)
	}
	if t.done || t.holds(w) {
		return
	}
	if bare && t.proofs {
		// Its sender has not turned: this node's full share, which would
		// turn it, has not reached it, and a peer that holds the value
		// asks for no re-send of it. Under a scheme without certificates,
		// which such a peer would answer with, it goes on the air again —
		// at most once per base period, as often as a NACK row would ask
		// for it. Once is not enough: a peer's row that gains the slot
		// parks the re-sent share here before it has gone out, and a peer
		// that has combined sends only its bare share back.
		if now := c.env.Sched.Now(); c.check == nil && t.mine.held && now >= t.nextFull {
			t.nextFull = now + resendEvery
			c.sendFull(t)
		}
		return
	}
	if !t.open {
		// Nothing to combine or verify against yet: park the peer's first
		// copy.
		if t.parked == nil {
			t.parked = make([][]byte, c.env.N)
		}
		if t.parked[w] == nil {
			t.parked[w] = append([]byte{}, raw...)
		}
		return
	}
	if bare {
		share, err := c.decodeBare(raw)
		if err != nil {
			c.env.Reject()
			return
		}
		c.add(t, id, w, share)
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

// offerCert takes a peer's certificate of t's value. A scheme without
// certificates has no such entry; one that comes before the subject
// parks; one is checked at a time, and none once the value exists.
func (c *collector[X, S, V]) offerCert(t *tally[X, S, V], id int, raw []byte) {
	switch {
	case c.check == nil:
		c.env.Reject()
	case t.done || t.checking: // settled, or one is being checked
	case !t.open:
		if t.parkedCert == nil {
			t.parkedCert = bytes.Clone(raw)
		}
	default:
		c.checkCert(t, id, bytes.Clone(raw))
	}
}

// checkCert checks a certificate of t's subject: a valid one settles the
// tally; an invalid one lets the shares parked behind it through.
func (c *collector[X, S, V]) checkCert(t *tally[X, S, V], id int, raw []byte) {
	t.checking = true
	c.env.Exec(c.certCost, func() {
		t.checking = false
		if t.done {
			return
		}
		value, err := c.check(t.subject, raw)
		if err != nil {
			c.env.Reject()
			c.drain(t, id)
			return
		}
		c.settle(t, id, value, raw)
	})
}

// settle records t's value, drops the shares still parked, runs the user's
// callback, and puts the value's certificate, if it has one, in the place
// of this node's share: the same intent, on the same send schedule, unless
// the component removed it.
func (c *collector[X, S, V]) settle(t *tally[X, S, V], id int, value V, cert []byte) {
	t.value, t.cert, t.done, t.parked = value, cert, true, nil
	c.combined(id, value)
	if cert != nil && t.published {
		c.env.T.Revise(t.certIntent())
	}
}

// add records a share (a peer's, verified or bare, or this node's own)
// unless it comes too late to count, and combines once the threshold is
// reached: k verified shares, or kBare bare ones — a tally that holds k
// bare shares of kBare > k turns to proofs once it has waited bareWait
// for the rest. The shares go to
// combine in node order, so a given set of contributors is always the
// same argument. A combination of bare shares is charged the check of the
// value too: the scheme's combineBare checks what it combines, and a
// value exists only once that check has passed.
func (c *collector[X, S, V]) add(t *tally[X, S, V], id, w int, share S) {
	if t.holds(w) || t.combining || t.done {
		return
	}
	if t.shares == nil {
		t.shares = make([]heldShare[S], c.env.N)
	}
	t.shares[w] = heldShare[S]{share, true}
	t.nShares++
	bare, need := c.bare != nil && !t.proofs, c.k
	if bare {
		need = c.kBare
	}
	if t.nShares < need {
		if bare && t.nShares == c.k {
			c.env.T.After(bareWait, func() {
				if !t.done && !t.combining {
					c.toProofs(t)
				}
			})
		}
		return
	}
	t.combining, t.combiningBare = true, bare
	shares := make([]S, 0, t.nShares)
	for _, h := range t.shares {
		if h.held {
			shares = append(shares, h.share)
		}
	}
	cost := c.combineCost
	if bare {
		cost += c.certCost
	}
	c.env.Exec(cost, func() {
		t.combining = false
		if t.done {
			return // a certificate settled the tally meanwhile
		}
		combine := c.combine
		if t.combiningBare {
			combine = c.combineBare
		}
		value, cert, err := combine(t.subject, shares)
		switch {
		case err == nil:
			c.settle(t, id, value, cert)
		default:
			// A bad share was among them: drop the peers' shares, keep
			// this node's own, and wait for more — with their proofs, if
			// they came bare.
			c.env.Reject()
			c.keepOwn(t)
			if c.bare != nil {
				c.toProofs(t)
			}
		}
	})
}

// keepOwn drops every peer's share of t; this node's own stays counted.
func (c *collector[X, S, V]) keepOwn(t *tally[X, S, V]) {
	if t.shares == nil {
		return
	}
	own := t.shares[c.env.Me]
	clear(t.shares)
	t.shares[c.env.Me], t.nShares = own, 0
	if own.held {
		t.nShares = 1
	}
}

// toProofs turns t to proofs: from now on only full shares count, each
// verified. The bare shares held or parked go; this node's own share, if
// made, counts — even one made too late to count before — and goes on the
// air again with its proof, so that its peers turn too and every honest
// share comes back verifiable. That proof is made here, by the share's
// full encoding, from the nonce drawn when the share was: its cost was
// charged then, with the share's, and nothing more is charged now. A Byzantine node can thus bring a tally
// back to verifying every share, at the price of one failed combination,
// and never to a weaker check. The share is published afresh only where
// the component has not withdrawn it.
func (c *collector[X, S, V]) toProofs(t *tally[X, S, V]) {
	if t.proofs {
		return
	}
	t.proofs, t.parked = true, nil
	c.keepOwn(t)
	if !t.mine.held {
		return
	}
	if !t.holds(c.env.Me) {
		if t.shares == nil {
			t.shares = make([]heldShare[S], c.env.N)
		}
		t.shares[c.env.Me] = t.mine
		t.nShares++
	}
	c.sendFull(t)
}

// sendFull puts this node's share of t on the air again, in full.
func (c *collector[X, S, V]) sendFull(t *tally[X, S, V]) {
	c.env.T.Refresh(core.Intent{IntentKey: t.key, Flags: proofFlag, Data: c.encode(t.mine.share)})
}

// must wraps share-making that fails only when the node's randomness does.
func must[S any](sh S, err error) (S, error) {
	if err != nil {
		panic("component: making a threshold share: " + err.Error())
	}
	return sh, nil
}

// sigScheme is threshold signing under one of the suite's keys: shares of
// a message combine into the signature's bytes, which are their own
// certificate. A share goes bare as its index and X; the proof (C, Z) is
// Shoup's, an artefact of the RSA construction that a pairing-based
// share does without. This node's share is made bare (threshsig.SignBare)
// and proved only by encode, the first time it goes on the air in full;
// shareCost still charges the whole of threshsig.Sign at share time, and
// the proof's nonce is drawn there, so neither the clock nor the node's
// randomness can tell whether the proof was ever made.
//
// high picks the suite's 2f+1 key (TSHigh), and not its f+1 one (TSLow).
// Shares are made, verified and combined by the suite's Ops; a peer's
// certificate is checked by the key itself.
func sigScheme(env *Env, high bool) scheme[[]byte, *threshsig.SigShare, []byte] {
	cost, key, ops, priv := env.Suite.Cost, env.Suite.TSLow, env.Suite.Ops.Low, env.Suite.TSLowShare
	if high {
		key, ops, priv = env.Suite.TSHigh, env.Suite.Ops.High, env.Suite.TSHighShare
	}
	// A combination checks the signature it makes (threshsig.Combine): a
	// bad share, bare or not, fails here.
	combine := func(msg []byte, shares []*threshsig.SigShare) ([]byte, []byte, error) {
		sig, err := ops.Combine(msg, shares)
		if err != nil {
			return nil, nil, err
		}
		raw := sig.Bytes()
		return raw, raw, nil
	}
	return scheme[[]byte, *threshsig.SigShare, []byte]{
		k: key.K, kBare: key.K, shareCost: cost.TSSign, verifyCost: cost.TSVerifyShare, combineCost: cost.TSCombine, certCost: cost.TSVerify,
		share:  func(msg []byte) (*threshsig.SigShare, error) { return must(ops.SignBare(priv, msg, env.Rand)) },
		encode: func(sh *threshsig.SigShare) []byte { return EncodeSigShare(key, sh) },
		decode: DecodeSigShare,
		bare:   func(sh *threshsig.SigShare) []byte { return EncodeBareSigShare(key, sh) },
		decodeBare: func(raw []byte) (*threshsig.SigShare, error) {
			sh, err := DecodeBareSigShare(raw)
			if err != nil {
				return nil, err
			}
			if sh.X.Sign() <= 0 || sh.X.Cmp(key.N) >= 0 {
				return nil, errBareShare
			}
			return sh, nil
		},
		verify:      ops.VerifyShare,
		combine:     combine,
		combineBare: combine,
		check: func(msg, raw []byte) ([]byte, error) {
			sig := &threshsig.Signature{S: bigFromBytes(raw)}
			// A signature has one encoding: the bytes it combines to.
			if !bytes.Equal(sig.Bytes(), raw) {
				return nil, errNonCanonical
			}
			if err := key.Verify(msg, sig); err != nil {
				return nil, err
			}
			return raw, nil
		},
	}
}

// uncertified makes a combination that yields no certificate.
func uncertified[X, S, V any](combine func(x X, shares []S) (V, error)) func(x X, shares []S) (V, []byte, error) {
	return func(x X, shares []S) (V, []byte, error) {
		v, err := combine(x, shares)
		return v, nil, err
	}
}

// flipScheme is the suite's threshold coin flipping: shares of a coin's
// name combine into its digest.
func flipScheme(env *Env) scheme[[]byte, *threshcoin.CoinShare, [32]byte] {
	cost, key, ops := env.Suite.Cost, env.Suite.TC, env.Suite.Ops.Coin
	return scheme[[]byte, *threshcoin.CoinShare, [32]byte]{
		k: key.K, shareCost: cost.TCShare, verifyCost: cost.TCVerifyShare, combineCost: cost.TCCombine,
		share: func(name []byte) (*threshcoin.CoinShare, error) {
			return must(ops.Share(env.Suite.TCShare, name, env.Rand))
		},
		encode:  func(sh *threshcoin.CoinShare) []byte { return EncodeDLShare(key.Group, sh) },
		decode:  DecodeDLShare,
		verify:  ops.VerifyShare,
		combine: uncertified(ops.Combine),
	}
}

// decScheme is the suite's threshold decryption: shares of a ciphertext
// combine into its plaintext, and the key they give is checked against
// the ciphertext's commitment. Its shares go bare, index and V, the proof
// (C, Z) following only in a full share; 2k−1 bare shares that agree
// (threshenc.CombineBare), or k verified ones, give the ciphertext's true
// key, so every honest node that combines reaches the same verdict. This
// node's share is made bare (threshenc.DecryptShareBare) and proved only
// by encode, as sigScheme's is; shareCost charges the whole of
// DecryptShare at share time, where the proof's nonce is drawn. A bare
// combination's check is charged nothing beyond combineCost (certCost 0):
// its agreement check is a few small powers and its commitment check a
// hash, and its membership power is the Schnorr-group stand-in's — in the
// paper's prime-order curve groups, membership is the on-curve check a
// decoder makes anyway. A ciphertext whose commitment is not its key's
// has no plaintext: it combines to a nil one (opening), and its tally
// settles with that.
func decScheme(env *Env) scheme[*threshenc.Ciphertext, *threshenc.DecShare, []byte] {
	cost, key, ops := env.Suite.Cost, env.Suite.TE, env.Suite.Ops.Dec
	return scheme[*threshenc.Ciphertext, *threshenc.DecShare, []byte]{
		k: key.K, kBare: key.BareQuorum(), shareCost: cost.TEDecShare, verifyCost: cost.TEVerifyShare,
		combineCost: cost.TECombine,
		share: func(ct *threshenc.Ciphertext) (*threshenc.DecShare, error) {
			return ops.DecryptShareBare(env.Suite.TEShare, ct, env.Rand)
		},
		encode: func(sh *threshenc.DecShare) []byte { return EncodeDLShare(key.Group, sh) },
		decode: DecodeDLShare,
		bare:   func(sh *threshenc.DecShare) []byte { return EncodeBareDLShare(key.Group, sh) },
		decodeBare: func(raw []byte) (*threshenc.DecShare, error) {
			sh, err := DecodeBareDLShare(raw)
			if err != nil {
				return nil, err
			}
			if sh.V.Sign() <= 0 || sh.V.Cmp(key.Group.P) >= 0 {
				return nil, errBareShare
			}
			return sh, nil
		},
		verify:      ops.VerifyShare,
		combine:     opening(env, ops.Combine),
		combineBare: opening(env, ops.CombineBare),
	}
}

// opening makes a decryption that yields no certificate, and reads
// threshenc.ErrCommitment as the ciphertext's lack of a plaintext: the
// shares agree on the key, and the ciphertext commits to another. That
// combination succeeds with a nil plaintext, and one rejection counted.
func opening(env *Env, combine func(*threshenc.Ciphertext, []*threshenc.DecShare) ([]byte, error)) func(*threshenc.Ciphertext, []*threshenc.DecShare) ([]byte, []byte, error) {
	return func(ct *threshenc.Ciphertext, shares []*threshenc.DecShare) ([]byte, []byte, error) {
		plain, err := combine(ct, shares)
		if errors.Is(err, threshenc.ErrCommitment) {
			env.Reject()
			return nil, nil, nil
		}
		return plain, nil, err
	}
}
