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
	// msgs: per-message context (x = H(msg), x4d = x^{4*delta} and the
	// comb of y = x^{2*delta}) shared by Sign, VerifyShare, Combine, and
	// Verify. One message is touched by every party of the simulation, so
	// the hit rate is ~(parties-1)/parties.
	msgs memo.Memo[[32]byte, *msgCtx]
	// folds: Combine's exponents keyed by subset.
	folds memo.Memo[string, *fold]
	// combos: Combine's answers, the signature or the error, keyed by the
	// message digest and the first k shares' (index, X) in their order —
	// the whole of what a combination reads. Every party combines every
	// message's shares, and the collector hands them over in node order,
	// so parties that hold the same first k shares, bare or verified, ask
	// the same question.
	combos memo.Memo[[32]byte, combination]
}

// combination is one of Combine's answers: a signature, or the error.
type combination struct {
	s   *big.Int
	err error
}

// msgCtx is the per-message exponentiation context.
type msgCtx struct {
	x   *big.Int // H(msg) in Z_N
	xb  base     // x prepared for one power: Combine's last base
	x4d *big.Int // x^{4*delta} — the share-proof base
	// y = x^{2*delta}, the one base every big power of the message is
	// taken from: a share is x_i = y^{s_i}, and the proof commitments are
	// x4d^w = y^{2w} and x4d^z = y^{2z} — about a dozen powers per message
	// across its signers and verifiers.
	y base
}

// oneShot prepares v for a single power.
func (pk *PublicKey) oneShot(v *big.Int) base {
	if pk.acc == nil {
		return base{v: v}
	}
	return pk.acc.split(v)
}

// fixed prepares v for many powers (see accel.fixed).
func (pk *PublicKey) fixed(v *big.Int, teeth int) base {
	if pk.acc == nil {
		return base{v: v}
	}
	return pk.acc.fixed(v, teeth)
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

// pow returns b^e mod N through the CRT accelerator when the key was
// produced by Deal; hand-built keys fall back to plain modexp. Either
// way a negative e is the inverse power, and the result is then nil when
// b is not a unit mod N.
func (pk *PublicKey) pow(b base, e *big.Int) *big.Int {
	if b.xp != nil {
		return pk.acc.exp(b, e)
	}
	return new(big.Int).Exp(b.v, e, pk.N)
}

// exp is pow for a base raised once.
func (pk *PublicKey) exp(v, e *big.Int) *big.Int { return pk.pow(pk.oneShot(v), e) }

// ctxFor returns the per-message context, computing and caching it on
// first use.
func (pk *PublicKey) ctxFor(msg []byte) *msgCtx {
	if pk.cc == nil {
		return pk.newCtx(msg)
	}
	return pk.cc.msgs.Get(sha256.Sum256(msg), func() *msgCtx { return pk.newCtx(msg) })
}

func (pk *PublicKey) newCtx(msg []byte) *msgCtx {
	x := hashToModulus(pk.N, pk.Salt, msg)
	y := pk.exp(x, new(big.Int).Lsh(pk.delta, 1))
	return &msgCtx{x: x, xb: pk.oneShot(x), x4d: pk.exp(y, two), y: pk.fixed(y, mont.TeethShort)}
}

// comboKey digests a message digest and the (index, X) pairs of the
// shares a combination uses, in their order, for the answer memo. Every
// party combines every message's shares, so the digest's input is laid
// out in a stack buffer, not allocated. The caller has checked every X is
// in (0, N): the key reads magnitudes.
func comboKey(msgDigest [32]byte, use []*SigShare) [32]byte {
	var stack [2048]byte
	buf := append(stack[:0], msgDigest[:]...)
	for _, sh := range use {
		buf = binary.BigEndian.AppendUint64(buf, uint64(sh.Index))
		buf = memo.AppendMagnitude(buf, sh.X)
	}
	return sha256.Sum256(buf)
}

// foldFor returns the fold of the given subset (see newFold), cached when
// the key carries a cache. The subset is keyed by its exact index
// sequence, so distinct share orderings cache separately — correctness
// never depends on canonicalization.
func (pk *PublicKey) foldFor(subset []*SigShare) *fold {
	if pk.cc == nil {
		return pk.newFold(subset)
	}
	key := make([]byte, 0, 2*len(subset))
	for _, sh := range subset {
		key = binary.BigEndian.AppendUint16(key, uint16(sh.Index))
	}
	return pk.cc.folds.Get(string(key), func() *fold { return pk.newFold(subset) })
}
