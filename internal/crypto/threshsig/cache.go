package threshsig

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"slices"
	"sync"

	"repro/internal/crypto/memo"
	"repro/internal/crypto/mont"
)

// pkCache memoizes the deterministic intermediate values of a dealt key.
// Keys are shared across concurrently running simulations (crypto.DealCached
// hands the same Suite to every sweep cell), so everything here is guarded;
// package memo says why none of it changes observable behaviour.
type pkCache struct {
	mu sync.Mutex
	// delta = L!, gcdA/gcdB = Bezout coefficients of (e, 4*delta^2):
	// fixed per key, computed on first use.
	delta      *big.Int
	gcdA, gcdB *big.Int
	// msgs: per-message context (x = H(msg), x4d = x^{4*delta} and the
	// comb of y = x^{2*delta}) shared by Sign, VerifyShare, Combine, and
	// Verify. One message is touched by every party of the simulation, so
	// the hit rate is ~(parties-1)/parties.
	msgs memo.Memo[[32]byte, *msgCtx]
	// verified: share-verification verdicts keyed by (msg, share). Each
	// share is verified by every other party.
	verified memo.Memo[[32]byte, error]
	// folds: Combine's exponents keyed by subset.
	folds memo.Memo[string, *fold]
	// sigs: combined signatures keyed by message digest, stored once a
	// combination has verified. A message has one signature (sigma^e = H(msg)
	// has one root mod N), so any k valid shares combine to it; Combine
	// returns it only for shares whose valid verdicts are all in verified.
	sigs memo.Memo[[32]byte, *big.Int]
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

// deltaL returns L! (cached when the key carries a cache).
func (pk *PublicKey) deltaL() *big.Int {
	if pk.cc == nil {
		return delta(pk.L)
	}
	pk.cc.mu.Lock()
	defer pk.cc.mu.Unlock()
	if pk.cc.delta == nil {
		pk.cc.delta = delta(pk.L)
	}
	return pk.cc.delta
}

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
	y := pk.exp(x, new(big.Int).Lsh(pk.deltaL(), 1))
	return &msgCtx{x: x, xb: pk.oneShot(x), x4d: pk.exp(y, two), y: pk.fixed(y, mont.TeethShort)}
}

// combineExponents returns the cached Bezout pair (a, b) with
// a*e + b*4*delta^2 = 1, or ok=false if e and 4*delta^2 are not coprime.
func (pk *PublicKey) combineExponents() (a, b *big.Int, ok bool) {
	if pk.cc != nil {
		pk.cc.mu.Lock()
		a, b = pk.cc.gcdA, pk.cc.gcdB
		pk.cc.mu.Unlock()
		if a != nil {
			return a, b, true
		}
	}
	d := pk.deltaL()
	fourD2 := new(big.Int).Mul(d, d)
	fourD2.Lsh(fourD2, 2)
	x, y := new(big.Int), new(big.Int)
	if new(big.Int).GCD(x, y, pk.E, fourD2).Cmp(one) != 0 {
		return nil, nil, false
	}
	if pk.cc != nil {
		pk.cc.mu.Lock()
		if pk.cc.gcdA == nil {
			pk.cc.gcdA, pk.cc.gcdB = x, y
		} else {
			x, y = pk.cc.gcdA, pk.cc.gcdB
		}
		pk.cc.mu.Unlock()
	}
	return x, y, true
}

// shareKey digests a (message, share) pair for the verdict memo. The key
// covers every byte the verifier reads, so two shares collide only if
// they would verify identically anyway. Every party looks up every share,
// so the digest's input is laid out in a stack buffer, not allocated:
// the message digest, the index, then X, C and Z, each length-prefixed.
func shareKey(msgDigest [32]byte, sh *SigShare) [32]byte {
	var stack [1024]byte
	buf := append(stack[:0], msgDigest[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(sh.Index))
	for _, v := range [...]*big.Int{sh.X, sh.C, sh.Z} {
		n := (v.BitLen() + 7) / 8
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
		buf = slices.Grow(buf, n)[:len(buf)+n]
		v.FillBytes(buf[len(buf)-n:])
	}
	return sha256.Sum256(buf)
}

// combined returns the cached signature on the message with the given
// digest when every share in use already has a cached valid verdict for it:
// then the combination would verify and so yield that very signature. Any
// other input — an unverified or invalid share, a message never combined —
// misses, and Combine runs in full.
func (pk *PublicKey) combined(msgDigest [32]byte, use []*SigShare) (*Signature, bool) {
	if pk.cc == nil {
		return nil, false
	}
	s, hit := pk.cc.sigs.Peek(msgDigest)
	if !hit {
		return nil, false
	}
	for _, sh := range use {
		// The verdict key reads magnitudes only: a share must pass the
		// shape check a verifier applies before its key is looked up.
		if checkShareShape(pk, sh) != nil {
			return nil, false
		}
		if err, hit := pk.cc.verified.Peek(shareKey(msgDigest, sh)); !hit || err != nil {
			return nil, false
		}
	}
	return &Signature{S: new(big.Int).Set(s)}, true
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

// ShareVerifier amortizes share verification for one message: the
// per-message context (H(msg) and the proof base x^{4*delta}) is computed
// once, and verdicts are shared with every other verifier of the same
// shares through the key's dedup memo. Use it when verifying several
// shares of the same message — cut-certificate collection, the DONE and
// FINISH phases, coin assembly.
type ShareVerifier struct {
	pk     *PublicKey
	ctx    *msgCtx
	digest [32]byte
}

// Verifier returns a ShareVerifier for msg.
func (pk *PublicKey) Verifier(msg []byte) *ShareVerifier {
	return &ShareVerifier{pk: pk, ctx: pk.ctxFor(msg), digest: sha256.Sum256(msg)}
}

// Verify checks one share. Equivalent to PublicKey.VerifyShare — same
// verdicts on the same inputs, bit for bit.
func (v *ShareVerifier) Verify(sh *SigShare) error {
	if err := checkShareShape(v.pk, sh); err != nil {
		return err
	}
	return v.pk.verifyShareWith(v.ctx, v.digest, sh)
}
