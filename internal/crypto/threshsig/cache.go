package threshsig

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"repro/internal/crypto/memo"
	"repro/internal/crypto/mont"
)

// pkCache memoizes the deterministic intermediate values of a dealt key.
// Keys are shared across concurrently running simulations (crypto.DealCached
// hands the same Suite to every sweep cell), and each memo is guarded;
// package memo says why none of it changes observable behaviour.
type pkCache struct {
	// msgs: per-message context (x = H(msg), x4d = x^{4*delta}, y =
	// x^{2*delta} with its combs) shared by Sign, VerifyShare, Combine,
	// and Verify.
	msgs memo.Memo[[32]byte, *msgCtx]
	// folds: Combine's exponents keyed by a digest of the subset.
	folds memo.Memo[[32]byte, *fold]
}

// msgCtx is the per-message exponentiation context: one allocation, with
// y's combs held in it, beside its values.
type msgCtx struct {
	xb  base     // x = H(msg) in Z_N, prepared for one power: Combine's last base, Verify's target
	x4d *big.Int // x^{4*delta} — the share-proof base
	// y = x^{2*delta}, the one base every big power of the message is
	// taken from: a share is x_i = y^{s_i}, and the proof commitments are
	// x4d^w = y^{2w} and x4d^z = y^{2z}.
	y base
	// yc holds y's combs, built on first use: Prove's y^w and
	// verifyShareFull's y^z.
	yc combs
}

// oneShot prepares v for a single power.
func (pk *PublicKey) oneShot(v *big.Int) base {
	if pk.acc == nil {
		return base{v: v}
	}
	return pk.acc.split(v)
}

// vBase and vkBase return the key's fixed bases V and VK_index.
func (pk *PublicKey) vBase() base {
	if pk.acc == nil {
		return base{v: pk.V}
	}
	return pk.acc.v
}

func (pk *PublicKey) vkBase(index int) base {
	if pk.acc == nil {
		return base{v: pk.VKs[index-1]}
	}
	return pk.acc.vks[index-1]
}

// The calls below run through the CRT accelerator when the key was
// produced by Deal, in the halves from a base's split to a value's
// recombination, and by plain modexp mod N on a hand-built key. They are
// the key's one arithmetic: every operation of the scheme is written on
// them once.

// exps returns e as each half raises it, reduced once (crtPrime.reduce)
// for an exponent raised more than once, or e itself on a hand-built key.
func (pk *PublicKey) exps(e *big.Int) (ep, eq *big.Int) {
	if pk.acc == nil {
		return e, e
	}
	return pk.acc.p.reduce(e), pk.acc.q.reduce(e)
}

// share returns x_i = y^{s_i} for share on the message of ctx, by one
// windowed power per half: each party raises y to its own s_i once, so
// the power builds none of y's combs, which only proofs need, and takes
// s_i unreduced, which allocates nothing (a negative s_i, no dealt one,
// takes pow).
func (pk *PublicKey) share(ctx *msgCtx, share PrivateShare) *big.Int {
	if pk.acc == nil || share.S.Sign() < 0 {
		return pk.pow(ctx.y, share.S, share.S)
	}
	var xp, xq mont.Elem
	pk.acc.p.mod.Pow(&xp, &ctx.y.xp, share.S)
	pk.acc.q.mod.Pow(&xq, &ctx.y.xq, share.S)
	return pk.acc.crt.Join(&xp, &xq)
}

// raise returns b^e as a base, where e is ep in p's half and eq in q's —
// one exponent, as exps gives it or as Deal reduced a dealt share's (a
// hand-built key reads ep). A negative exponent is the inverse power, and
// raise reports false when b is then not a unit mod N.
func (pk *PublicKey) raise(b base, ep, eq *big.Int) (base, bool) {
	if pk.acc != nil {
		return pk.acc.raise(b, ep, eq)
	}
	r := new(big.Int).Exp(b.v, ep, pk.N)
	return base{v: r}, r != nil
}

// mul returns x*y mod N.
func (pk *PublicKey) mul(x, y base) base {
	if pk.acc != nil {
		return pk.acc.mul(x, y)
	}
	r := new(big.Int).Mul(x.v, y.v)
	return base{v: r.Mod(r, pk.N)}
}

// value returns b as a big.Int: the way out of the halves.
func (pk *PublicKey) value(b base) *big.Int {
	if pk.acc != nil {
		return pk.acc.value(b)
	}
	return b.v
}

// same reports whether x and y are one value mod N.
func (pk *PublicKey) same(x, y base) bool {
	if pk.acc != nil {
		return pk.acc.same(x, y)
	}
	return x.v.Cmp(y.v) == 0
}

// isUnit reports whether x is invertible mod N.
func (pk *PublicKey) isUnit(x base) bool {
	if pk.acc != nil {
		return pk.acc.isUnit(x)
	}
	return new(big.Int).GCD(nil, nil, x.v, pk.N).Cmp(one) == 0
}

// pow is raise's power as a big.Int, nil where raise reports false.
func (pk *PublicKey) pow(b base, ep, eq *big.Int) *big.Int {
	r, ok := pk.raise(b, ep, eq)
	if !ok {
		return nil
	}
	return pk.value(r)
}

// exp returns v^e mod N; a negative e is the inverse power, and the result
// is then nil when v is not a unit mod N.
func (pk *PublicKey) exp(v, e *big.Int) *big.Int { return pk.pow(pk.oneShot(v), e, e) }

// ctxFor returns the per-message context, computing and caching it on
// first use.
func (pk *PublicKey) ctxFor(msg []byte) *msgCtx {
	if pk.cc == nil {
		return pk.newCtx(msg)
	}
	return pk.cc.msgs.Get(sha256.Sum256(msg), func() *msgCtx { return pk.newCtx(msg) })
}

func (pk *PublicKey) newCtx(msg []byte) *msgCtx { return pk.ctxOf(hashToModulus(pk.N, pk.Salt, msg)) }

// ctxOf returns the context of a message that hashes to x.
func (pk *PublicKey) ctxOf(x *big.Int) *msgCtx {
	xb := pk.oneShot(x)
	d2 := new(big.Int).Lsh(pk.delta, 1)
	y, _ := pk.raise(xb, d2, d2)
	c := &msgCtx{xb: xb, x4d: pk.value(pk.mul(y, y)), y: y}
	if pk.acc != nil {
		pk.acc.table(&c.y, &c.yc, mont.TeethShort)
	}
	return c
}

// foldFor returns the fold of the given subset (see newFold), cached when
// the key carries a cache. The subset is keyed by a digest of its exact
// index sequence, so distinct share orderings cache separately — correctness
// never depends on canonicalization.
func (pk *PublicKey) foldFor(subset []*SigShare) *fold {
	if pk.cc == nil {
		return pk.newFold(subset)
	}
	var stack [64]byte
	key := stack[:0]
	for _, sh := range subset {
		key = binary.BigEndian.AppendUint16(key, uint16(sh.Index))
	}
	return pk.cc.folds.Get(sha256.Sum256(key), func() *fold { return pk.newFold(subset) })
}
