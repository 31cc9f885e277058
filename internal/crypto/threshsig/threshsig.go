// Package threshsig implements Shoup's practical RSA threshold signatures
// ("Practical Threshold Signatures", EUROCRYPT 2000) with a trusted dealer.
//
// A (k, n) threshold signature lets any k of n parties produce a compact
// signature that third parties verify with a single RSA verification —
// exactly the primitive the paper's PRBC DONE phase, CBC FINISH phase, and
// shared-coin ABA rely on. The paper implements it over MIRACL pairing
// curves; the stdlib has no pairings, so this package substitutes the
// classic RSA construction, which preserves the API (deal / sign share /
// verify share / combine / verify) and the monotone cost/size ladder across
// parameter sets (see DESIGN.md).
//
// Share validity proofs are Chaum–Pedersen style proofs in the RSA group
// (unknown order, so responses are integers a few hundred bits longer than
// the modulus), letting honest combiners discard Byzantine shares. Making
// the proof is two of a share's three exponentiations, and a combination
// that verifies needs none of it, so a share can be made bare (SignBare)
// and proved later, only if it must be (SigShare.Prove): its nonce is drawn
// when the share is made, so the late proof is the one Sign makes, and
// the caller's randomness is read exactly as by Sign.
package threshsig

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/crypto/mont"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// PublicKey verifies combined signatures and shares.
type PublicKey struct {
	Name string   // parameter-set name, e.g. "TS-512"
	N    *big.Int // RSA modulus
	E    *big.Int // public exponent (prime > n parties)
	V    *big.Int // verification base (generator of QR(N))
	VKs  []*big.Int
	K    int // threshold (shares needed)
	L    int // total parties
	// Salt is a per-deal public value mixed into message hashing. The
	// embedded modulus fixtures fix the private exponent d across deals,
	// so without a salt a signature on a fixed message — and therefore a
	// common coin derived from it — would repeat across runs.
	Salt [16]byte

	// acc and cc are attached by Deal: the CRT exponentiation accelerator
	// (the dealer knows the fixture primes) and the memo cache for
	// deterministic intermediate values. Both are bit-exact fast paths;
	// keys built by hand without Deal simply run the slow path.
	acc *accel
	cc  *pkCache
}

// PrivateShare is party i's signing share.
type PrivateShare struct {
	Index int // 1-based
	S     *big.Int
}

// SigShare is a signature share with its validity proof. A share made by
// SignBare has no proof yet (C and Z nil) but carries what makes it, which
// Prove spends.
type SigShare struct {
	Index int
	X     *big.Int // x^{2*delta*s_i} mod N
	C, Z  *big.Int // Chaum–Pedersen proof (Fiat–Shamir)

	pending *pendingProof
}

// pendingProof is what proves a share made bare: the signer's key share
// and the proof's nonce, drawn when the share was made, and the message's
// context from the key's memo.
type pendingProof struct {
	pk  *PublicKey
	ctx *msgCtx
	s   *big.Int // s_i
	w   *big.Int
}

// Signature is a combined threshold signature.
type Signature struct {
	S *big.Int
}

// Bytes returns the canonical encoding of the signature.
func (s *Signature) Bytes() []byte { return s.S.Bytes() }

// Dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
}

// Deal generates a (k, l) threshold key from the fixture primes p and q
// (modulus n = p*q). The polynomial is sampled fresh from rand, so repeated
// deals over the same modulus yield unrelated keys.
func Deal(name string, p, q *big.Int, k, l int, rand io.Reader) (*Key, error) {
	if k < 1 || l < k {
		return nil, fmt.Errorf("threshsig: invalid threshold %d of %d", k, l)
	}
	n := new(big.Int).Mul(p, q)
	pk := PublicKey{Name: name, N: n, K: k, L: l, acc: newAccel(p, q)}
	// m = p' * q' with p = 2p'+1, q = 2q'+1. With non-safe fixture primes
	// this is still (p-1)(q-1)/4; interpolation uses the integer-delta
	// trick, which needs no structure on m.
	pp := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
	qq := new(big.Int).Rsh(new(big.Int).Sub(q, one), 1)
	m := new(big.Int).Mul(pp, qq)

	// Public exponent: a prime greater than l, coprime to m.
	e := big.NewInt(65537)
	if new(big.Int).GCD(nil, nil, e, m).Cmp(one) != 0 {
		return nil, errors.New("threshsig: fixture modulus incompatible with e=65537")
	}
	d := new(big.Int).ModInverse(e, m)
	if d == nil {
		return nil, errors.New("threshsig: no modular inverse for e")
	}

	// Polynomial over Z_m with f(0) = d.
	coeffs := make([]*big.Int, k)
	coeffs[0] = d
	for i := 1; i < k; i++ {
		c, err := randBelow(rand, m)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	shares := make([]PrivateShare, l)
	for i := 1; i <= l; i++ {
		shares[i-1] = PrivateShare{Index: i, S: evalPoly(coeffs, int64(i), m)}
	}

	// Verification base v: a random quadratic residue, plus per-party
	// verification keys v_i = v^{s_i}.
	r, err := randBelow(rand, n)
	if err != nil {
		return nil, err
	}
	pk.E, pk.V = e, pk.exp(r, two)
	if pk.acc != nil {
		pk.acc.v = pk.acc.fixed(pk.V, mont.TeethLong)
		pk.acc.vks = make([]base, l)
	}
	pk.VKs = make([]*big.Int, l)
	for i, sh := range shares {
		// Through v's comb: the l powers here pay for it, and the run's
		// first signature share finds it built.
		pk.VKs[i] = pk.pow(pk.vBase(), sh.S)
		if pk.acc != nil {
			pk.acc.vks[i] = pk.acc.fixed(pk.VKs[i], mont.TeethLong)
		}
	}
	if _, err := io.ReadFull(rand, pk.Salt[:]); err != nil {
		return nil, fmt.Errorf("threshsig: sampling salt: %w", err)
	}
	pk.cc = &pkCache{}
	return &Key{Public: pk, Shares: shares}, nil
}

// delta returns l! as a big integer.
func delta(l int) *big.Int {
	d := big.NewInt(1)
	for i := 2; i <= l; i++ {
		d.Mul(d, big.NewInt(int64(i)))
	}
	return d
}

// hashToModulus maps a message to an element of Z_N^*.
func hashToModulus(n *big.Int, salt [16]byte, msg []byte) *big.Int {
	need := (n.BitLen()+7)/8 + 16
	buf := make([]byte, 0, need)
	var ctr uint32
	for len(buf) < need {
		h := sha256.New()
		h.Write([]byte("threshsig-h2m"))
		h.Write(salt[:])
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write(msg)
		buf = h.Sum(buf)
		ctr++
	}
	x := new(big.Int).SetBytes(buf)
	x.Mod(x, n)
	if x.Sign() == 0 {
		x.SetInt64(1)
	}
	return x
}

// Sign produces party i's signature share on msg, with a validity proof.
func (pk *PublicKey) Sign(share PrivateShare, msg []byte, rand io.Reader) (*SigShare, error) {
	sh, err := pk.SignBare(share, msg, rand)
	if err != nil {
		return nil, err
	}
	sh.Prove()
	return sh, nil
}

// SignBare produces party i's signature share on msg without its validity
// proof: X alone, one exponentiation of Sign's three. The proof's nonce is
// drawn from rand now, as Sign draws it, so rand is left where Sign would
// leave it and the share's Prove makes the proof Sign would have made.
func (pk *PublicKey) SignBare(share PrivateShare, msg []byte, rand io.Reader) (*SigShare, error) {
	ctx := pk.ctxFor(msg)
	// x_i = x^{2*delta*s_i} = y^{s_i}
	xi := pk.pow(ctx.y, share.S)
	// Random w of |N| + 2*256 bits.
	w, err := randBits(rand, pk.N.BitLen()+512)
	if err != nil {
		return nil, err
	}
	return &SigShare{Index: share.Index, X: xi, pending: &pendingProof{pk: pk, ctx: ctx, s: share.S, w: w}}, nil
}

// Prove gives a share made by SignBare its validity proof, at most once: a
// share that already has one, or was not made by SignBare, is left as it
// is.
func (sh *SigShare) Prove() {
	p := sh.pending
	if p == nil {
		return
	}
	sh.pending = nil
	if sh.C != nil || sh.Z != nil {
		return
	}
	// Proof of log equality: log_{x4d}(xi^2) == log_v(v_i), exponent s_i.
	// x4d = x^{4*delta}.
	pk := p.pk
	xi2 := pk.exp(sh.X, two)
	vi := pk.VKs[sh.Index-1]
	t1 := pk.pow(p.ctx.y, new(big.Int).Lsh(p.w, 1)) // x4d^w
	t2 := pk.pow(pk.vBase(), p.w)
	c := proofChallenge(pk, p.ctx.x4d, xi2, vi, t1, t2)
	// z = w + c*s_i over the integers.
	z := new(big.Int).Mul(c, p.s)
	sh.C, sh.Z = c, z.Add(z, p.w)
}

// VerifyShare checks a signature share against msg.
func (pk *PublicKey) VerifyShare(msg []byte, sh *SigShare) error {
	return pk.Verifier(msg).Verify(sh)
}

var (
	errBadIndex   = errors.New("threshsig: bad share index")
	errShareRange = errors.New("threshsig: share value out of range")
	errNoProof    = errors.New("threshsig: missing share proof")
	errNegProof   = errors.New("threshsig: negative share proof")
)

// checkShareShape performs the cheap structural checks shared by
// VerifyShare and ShareVerifier.
func checkShareShape(pk *PublicKey, sh *SigShare) error {
	if sh == nil || sh.Index < 1 || sh.Index > pk.L {
		return errBadIndex
	}
	if sh.X == nil || sh.X.Sign() <= 0 || sh.X.Cmp(pk.N) >= 0 {
		return errShareRange
	}
	if sh.C == nil || sh.Z == nil {
		return errNoProof
	}
	// An honest proof is a hash and a sum of non-negative terms. (The
	// verdict memo keys on magnitudes, so a sign must not reach it.)
	if sh.C.Sign() < 0 || sh.Z.Sign() < 0 {
		return errNegProof
	}
	return nil
}

// verifyShareWith checks a structurally sound share against the message
// context, consulting the dedup memo first: in a simulation every share
// is verified by each of the other parties, and the verdict is a pure
// function of (msg, share), so a replayed verdict is exact.
func (pk *PublicKey) verifyShareWith(ctx *msgCtx, msgDigest [32]byte, sh *SigShare) error {
	if pk.cc == nil {
		return pk.verifyShareFull(ctx, sh)
	}
	return pk.cc.verified.Get(shareKey(msgDigest, sh), func() error { return pk.verifyShareFull(ctx, sh) })
}

// verifyShareFull recomputes the share's Chaum–Pedersen proof.
func (pk *PublicKey) verifyShareFull(ctx *msgCtx, sh *SigShare) error {
	x4d := ctx.x4d
	// The proof divides by a power of the share, so the share must be a
	// unit mod N (an honest x_i is a power of H(msg)).
	xi := pk.oneShot(sh.X)
	if !pk.isUnit(xi) {
		return errors.New("threshsig: degenerate share")
	}
	xi2 := pk.pow(xi, two)
	vi := pk.VKs[sh.Index-1]
	// Recompute commitments: t1 = x4d^z * xi2^{-c}, t2 = v^z * vi^{-c},
	// with x4d^z = y^{2z}.
	negC := new(big.Int).Neg(sh.C)
	t1 := pk.mulPow(ctx.y, new(big.Int).Lsh(sh.Z, 1), pk.oneShot(xi2), negC)
	if t1 == nil {
		return errors.New("threshsig: degenerate share")
	}
	t2 := pk.mulPow(pk.vBase(), sh.Z, pk.vkBase(sh.Index), negC)
	if t2 == nil {
		return errors.New("threshsig: degenerate verification key")
	}
	if proofChallenge(pk, x4d, xi2, vi, t1, t2).Cmp(sh.C) != 0 {
		return errors.New("threshsig: share proof rejected")
	}
	return nil
}

// Combine assembles k shares into a standard RSA signature on msg. The
// shares need not have been verified (VerifyShare), nor carry their proofs:
// Combine reads each share's index and X, checks the result as Verify does
// and reports an error if the combination does not verify, which catches
// any bad share among them.
//
// With w = prod x_i^{2*lambda_i}, where lambda_i are integer Lagrange
// coefficients scaled by delta, w^e = x^{4*delta^2}; since gcd(e,
// 4*delta^2) = 1 (e prime > l), extended Euclid gives a, b with a*e +
// b*4*delta^2 = 1, and sigma = x^a * w^b satisfies sigma^e = x. Combine
// raises that as one product of k+1 powers, sigma = x^a * prod
// x_i^{2*lambda_i*b} (foldFor), and checks sigma^e = x before it is
// recombined (root).
//
// The answer, signature or error, is a function of msg and the first k
// shares' indices and X alone, and a dealt key memoizes it by exactly
// those (comboKey) when every X is in (0, N); each caller gets its own
// copy of the signature.
func (pk *PublicKey) Combine(msg []byte, shares []*SigShare) (*Signature, error) {
	if len(shares) < pk.K {
		return nil, fmt.Errorf("threshsig: need %d shares, have %d", pk.K, len(shares))
	}
	use := shares[:pk.K]
	for i, sh := range use {
		for _, prev := range use[:i] {
			if prev.Index == sh.Index {
				return nil, fmt.Errorf("threshsig: duplicate share %d", sh.Index)
			}
		}
	}
	if pk.cc == nil || !sharesInRange(pk, use) {
		return pk.combine(msg, use)
	}
	c := pk.cc.combos.Get(comboKey(sha256.Sum256(msg), use), func() combination {
		sig, err := pk.combine(msg, use)
		if err != nil {
			return combination{err: err}
		}
		return combination{s: sig.S}
	})
	if c.err != nil {
		return nil, c.err
	}
	return &Signature{S: new(big.Int).Set(c.s)}, nil
}

// sharesInRange reports whether every share's X is in (0, N), where the
// answer memo's key, which reads magnitudes, tells X from every other
// value; a share outside is combined without the memo.
func sharesInRange(pk *PublicKey, use []*SigShare) bool {
	for _, sh := range use {
		if sh.X == nil || sh.X.Sign() <= 0 || sh.X.Cmp(pk.N) >= 0 {
			return false
		}
	}
	return true
}

// combine is Combine past its argument checks, with no answer memo.
func (pk *PublicKey) combine(msg []byte, use []*SigShare) (*Signature, error) {
	var stack [8]base
	bases := stack[:0]
	for _, sh := range use {
		// An exponent may be negative: an inverse power, for which the
		// share must be a unit mod N. Every share is held to that — an
		// honest x_i is a power of H(msg) — so a degenerate one is named
		// here and not by the final check.
		xi := pk.oneShot(sh.X)
		if !pk.isUnit(xi) {
			return nil, errors.New("threshsig: non-invertible share")
		}
		bases = append(bases, xi)
	}
	f := pk.foldFor(use)
	if f == nil {
		return nil, errors.New("threshsig: exponent not coprime to 4*delta^2")
	}
	x := pk.ctxFor(msg).xb
	if f.negA && !pk.isUnit(x) {
		return nil, errors.New("threshsig: non-invertible message hash")
	}
	bases = append(bases, x)
	sigma := pk.root(bases, f)
	if sigma == nil {
		return nil, fmt.Errorf("threshsig: combination failed (bad share among inputs): %w", errVerify)
	}
	return &Signature{S: sigma}, nil
}

var errVerify = errors.New("threshsig: verification failed")

// Verify checks a combined signature with a single RSA verification.
func (pk *PublicKey) Verify(msg []byte, sig *Signature) error {
	if sig == nil || sig.S == nil || sig.S.Sign() <= 0 || sig.S.Cmp(pk.N) >= 0 {
		return errors.New("threshsig: malformed signature")
	}
	x := pk.ctxFor(msg).x
	got := pk.exp(sig.S, pk.E)
	if got.Cmp(x) != 0 {
		return errVerify
	}
	return nil
}

// SignatureLen returns the byte length of a combined signature.
func (pk *PublicKey) SignatureLen() int { return (pk.N.BitLen() + 7) / 8 }

// integerLagrange computes delta * prod_{j in S, j != i} j / (j - i),
// which Shoup shows is always an integer.
func integerLagrange(subset []*SigShare, i int, d *big.Int) *big.Int {
	num := new(big.Int).Set(d)
	den := big.NewInt(1)
	for _, sh := range subset {
		if sh.Index == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(sh.Index)))
		den.Mul(den, big.NewInt(int64(sh.Index-i)))
	}
	out := new(big.Int).Quo(num, den)
	return out
}

// fold is the exponents of one subset's combination, sigma = x^a * prod
// x_i^{2*lambda_i*b}, over Combine's bases — the subset's shares in order,
// then x — split by sign into a numerator and a denominator.
type fold struct {
	num, den powers
	negA     bool // a < 0: x is in the denominator
}

// powers is one side of a fold: bases by position, with the magnitudes of
// their exponents.
type powers struct {
	at  []int
	exp []*big.Int
}

// newFold returns subset's fold, or nil when e and 4*delta^2 are not
// coprime.
func (pk *PublicKey) newFold(subset []*SigShare) *fold {
	a, b, ok := pk.combineExponents()
	if !ok {
		return nil
	}
	f := &fold{negA: a.Sign() < 0}
	d := pk.deltaL()
	for i, sh := range subset {
		lam := integerLagrange(subset, sh.Index, d)
		f.add(i, lam.Mul(lam.Lsh(lam, 1), b))
	}
	f.add(len(subset), new(big.Int).Set(a))
	return f
}

// add puts base i's exponent e on the side its sign picks; e is taken.
func (f *fold) add(i int, e *big.Int) {
	side := &f.num
	if e.Sign() < 0 {
		side = &f.den
		e.Neg(e)
	}
	side.at = append(side.at, i)
	side.exp = append(side.exp, e)
}

// raise returns the fold's product over xs mod n: each side on one
// squaring chain of mod, or by big.Int.Exp when mod is nil, and the
// denominator inverted once. Every base of the denominator must be a unit
// mod n.
func (f *fold) raise(mod *mont.Modulus, n *big.Int, xs []*big.Int) *big.Int {
	num := f.num.raise(mod, n, xs)
	if len(f.den.at) == 0 {
		return num
	}
	den := f.den.raise(mod, n, xs)
	num.Mul(num, den.ModInverse(den, n))
	return num.Mod(num, n)
}

// raise returns the side's product over xs mod n.
func (p *powers) raise(mod *mont.Modulus, n *big.Int, xs []*big.Int) *big.Int {
	var stack [8]*big.Int
	bs := stack[:0]
	for _, at := range p.at {
		bs = append(bs, xs[at])
	}
	if mod != nil {
		return mod.MulExp(bs, p.exp)
	}
	z := big.NewInt(1)
	for i, b := range bs {
		z.Mul(z, new(big.Int).Exp(b, p.exp[i], n))
		z.Mod(z, n)
	}
	return z
}

// root returns the fold's product over bases — the subset's shares, then
// x — when its e-th power is x, and nil otherwise. A key that knows its
// primes does both in each CRT half (accel.root); by the CRT, sigma^e = x
// mod N exactly when it holds mod p and mod q, so this is Verify's check.
func (pk *PublicKey) root(bases []base, f *fold) *big.Int {
	if pk.acc != nil {
		return pk.acc.root(bases, f, pk.E)
	}
	var stack [8]*big.Int
	xs := stack[:0]
	for _, b := range bases {
		xs = append(xs, b.v)
	}
	s := f.raise(nil, pk.N, xs)
	if new(big.Int).Exp(s, pk.E, pk.N).Cmp(xs[len(xs)-1]) != 0 {
		return nil
	}
	return s
}

// mulPow computes x^a * w^b mod N. A negative exponent is an inverse
// power; the result is nil when its base is not a unit mod N.
func (pk *PublicKey) mulPow(x base, a *big.Int, w base, b *big.Int) *big.Int {
	xa, wb := pk.pow(x, a), pk.pow(w, b)
	if xa == nil || wb == nil {
		return nil
	}
	xa.Mul(xa, wb)
	return xa.Mod(xa, pk.N)
}

// isUnit reports whether x is invertible mod N: nonzero mod both primes
// when the key knows them.
func (pk *PublicKey) isUnit(x base) bool {
	if x.xp != nil {
		return x.xp.Sign() != 0 && x.xq.Sign() != 0
	}
	return new(big.Int).GCD(nil, nil, x.v, pk.N).Cmp(one) == 0
}

func proofChallenge(pk *PublicKey, parts ...*big.Int) *big.Int {
	h := sha256.New()
	h.Write([]byte("threshsig-proof-v1"))
	h.Write(pk.N.Bytes())
	for _, p := range parts {
		b := p.Bytes()
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
		h.Write(lb[:])
		h.Write(b)
	}
	return new(big.Int).SetBytes(h.Sum(nil))
}

func evalPoly(coeffs []*big.Int, x int64, m *big.Int) *big.Int {
	bx := big.NewInt(x)
	y := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		y.Mul(y, bx)
		y.Add(y, coeffs[i])
		y.Mod(y, m)
	}
	return y
}

func randBelow(rand io.Reader, max *big.Int) (*big.Int, error) {
	bits := max.BitLen()
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	for {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, err
		}
		if excess := bytes*8 - bits; excess > 0 {
			buf[0] &= 0xFF >> excess
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(max) < 0 && v.Sign() > 0 {
			return v, nil
		}
	}
}

func randBits(rand io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(rand, buf); err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(buf), nil
}
