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
	"math/bits"
	"slices"

	"repro/internal/crypto/memo"
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

	// delta = L!, and gcdA, gcdB with gcdA*E + gcdB*4*delta^2 = 1: fixed
	// per key, set by Deal.
	delta, gcdA, gcdB *big.Int

	// acc and cc are attached by Deal: the CRT exponentiation accelerator
	// (the dealer knows the fixture primes) and the memo cache for
	// deterministic intermediate values. Both are bit-exact fast paths; a
	// key without them runs the slow path.
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
// A share the ideal key issued (Ideal.SignBare) has its ideal key and the
// message's digest instead of the key, the context and s_i.
type pendingProof struct {
	pk  *PublicKey
	ctx *msgCtx
	s   *big.Int // s_i
	w   []byte   // the nonce's bytes as read; Prove makes them a number

	ideal *Ideal
	md    [32]byte
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
	// Ideal is the key's ideal functionality, which runs use (Ideal).
	Ideal *Ideal
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
	// Combine's exponents: e is coprime to 4*delta^2 when it is a prime
	// greater than l.
	pk.delta, pk.gcdA, pk.gcdB = delta(l), new(big.Int), new(big.Int)
	fourD2 := new(big.Int).Mul(pk.delta, pk.delta)
	fourD2.Lsh(fourD2, 2)
	if new(big.Int).GCD(pk.gcdA, pk.gcdB, e, fourD2).Cmp(one) != 0 {
		return nil, fmt.Errorf("threshsig: e=%v not coprime to 4*(%d!)^2", e, l)
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
		// Through v's comb: the l powers here pay for it, and the first
		// signature share finds it built.
		sp, sq := pk.exps(sh.S)
		pk.VKs[i] = pk.pow(pk.vBase(), sp, sq)
		if pk.acc != nil {
			pk.acc.vks[i] = pk.acc.fixed(pk.VKs[i], mont.TeethLong)
		}
	}
	if _, err := io.ReadFull(rand, pk.Salt[:]); err != nil {
		return nil, fmt.Errorf("threshsig: sampling salt: %w", err)
	}
	pk.cc = &pkCache{}
	key := &Key{Public: pk, Shares: shares}
	key.Ideal = newIdeal(&key.Public, p, q, d)
	return key, nil
}

// delta returns l! as a big integer.
func delta(l int) *big.Int {
	d := big.NewInt(1)
	for i := 2; i <= l; i++ {
		d.Mul(d, big.NewInt(int64(i)))
	}
	return d
}

// hashToModulus maps a message to an element of Z_N^*: the counter-mode
// SHA-256 of (tag, salt, counter, msg), |N| + 128 bits of it, mod N. The
// input is laid out once, in a stack buffer for any message that fits,
// and each counter step rewrites its counter in place and hashes it in one
// call, so the result is all that is allocated.
func hashToModulus(n *big.Int, salt [16]byte, msg []byte) *big.Int {
	const tag = "threshsig-h2m"
	var in [512]byte
	buf := append(append(append(in[:0], tag...), salt[:]...), 0, 0, 0, 0)
	buf = append(buf, msg...)
	ctr := buf[len(tag)+len(salt) : len(tag)+len(salt)+4]
	need := (n.BitLen()+7)/8 + 16
	var outStack [512]byte
	out := outStack[:0]
	for i := uint32(0); len(out) < need; i++ {
		binary.BigEndian.PutUint32(ctr, i)
		h := sha256.Sum256(buf)
		out = append(out, h[:]...)
	}
	// One array holds x's words, with room for the one the division adds,
	// and the quotient's after them: the reduction runs in x's own words.
	xw := len(out)*8/bits.UintSize + 1
	words := make([]big.Word, 2*xw-len(n.Bits()))
	x := new(big.Int).SetBits(words[:0:xw])
	x.SetBytes(out)
	new(big.Int).SetBits(words[xw:xw]).QuoRem(x, n, x)
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
	xi := pk.share(ctx, share)
	// Random w of |N| + 2*256 bits, read now and made a number by Prove.
	w := make([]byte, (pk.N.BitLen()+512+7)/8)
	if _, err := io.ReadFull(rand, w); err != nil {
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
	if p.ideal != nil {
		sh.C, sh.Z = p.ideal.proof(sh.Index, &p.md, sh.X, p.w)
		return
	}
	// Proof of log equality: log_{x4d}(xi^2) == log_v(v_i), exponent s_i.
	// x4d = x^{4*delta}.
	pk := p.pk
	w := new(big.Int).SetBytes(p.w)
	xi2 := pk.exp(sh.X, two)
	vi := pk.VKs[sh.Index-1]
	// t1 = x4d^w = (y^w)^2 and t2 = v^w, w reduced once for both.
	wp, wq := pk.exps(w)
	yw, _ := pk.raise(p.ctx.y, wp, wq)
	vw, _ := pk.raise(pk.vBase(), wp, wq)
	d := proofChallenge(pk, p.ctx.x4d, xi2, vi, pk.value(pk.mul(yw, yw)), pk.value(vw))
	c := new(big.Int).SetBytes(d[:])
	// z = w + c*s_i over the integers.
	z := new(big.Int).Mul(c, p.s)
	sh.C, sh.Z = c, z.Add(z, w)
}

// VerifyShare checks a signature share against msg.
func (pk *PublicKey) VerifyShare(msg []byte, sh *SigShare) error {
	if err := checkShareShape(pk, sh); err != nil {
		return err
	}
	return pk.verifyShareFull(pk.ctxFor(msg), sh)
}

var (
	errBadIndex   = errors.New("threshsig: bad share index")
	errShareRange = errors.New("threshsig: share value out of range")
	errNoProof    = errors.New("threshsig: missing share proof")
	errNegProof   = errors.New("threshsig: negative share proof")
)

// checkShareShape performs VerifyShare's cheap structural checks.
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
	// An honest proof is a hash and a sum of non-negative terms, so a
	// negative C or Z is a second encoding of a share, never a share.
	if sh.C.Sign() < 0 || sh.Z.Sign() < 0 {
		return errNegProof
	}
	return nil
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
	xi2 := pk.mul(xi, xi)
	vi := pk.VKs[sh.Index-1]
	// Recompute commitments: t1 = x4d^z * xi2^{-c}, t2 = v^z * vi^{-c},
	// with x4d^z = (y^z)^2 and z reduced once for both.
	negC := new(big.Int).Neg(sh.C)
	zp, zq := pk.exps(sh.Z)
	yz, _ := pk.raise(ctx.y, zp, zq)
	xc, ok := pk.raise(xi2, negC, negC)
	if !ok {
		return errors.New("threshsig: degenerate share")
	}
	t1 := pk.mul(pk.mul(yz, yz), xc)
	vz, _ := pk.raise(pk.vBase(), zp, zq)
	vc, ok := pk.raise(pk.vkBase(sh.Index), negC, negC)
	if !ok {
		return errors.New("threshsig: degenerate verification key")
	}
	t2 := pk.mul(vz, vc)
	if !isDigest(sh.C, proofChallenge(pk, x4d, pk.value(xi2), vi, pk.value(t1), pk.value(t2))) {
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
func (pk *PublicKey) Combine(msg []byte, shares []*SigShare) (*Signature, error) {
	use, err := pk.firstK(shares)
	if err != nil {
		return nil, err
	}
	var stack [16]base
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

// firstK returns the first k shares, after Combine's checks of their
// count and indices.
func (pk *PublicKey) firstK(shares []*SigShare) ([]*SigShare, error) {
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
	return use, nil
}

var errVerify = errors.New("threshsig: verification failed")

// Verify checks a combined signature with a single RSA verification.
func (pk *PublicKey) Verify(msg []byte, sig *Signature) error {
	if sig == nil || sig.S == nil || sig.S.Sign() <= 0 || sig.S.Cmp(pk.N) >= 0 {
		return errors.New("threshsig: malformed signature")
	}
	x := pk.ctxFor(msg).xb
	if s, _ := pk.raise(pk.oneShot(sig.S), pk.E, pk.E); !pk.same(s, x) {
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

// newFold returns subset's fold.
func (pk *PublicKey) newFold(subset []*SigShare) *fold {
	f := &fold{negA: pk.gcdA.Sign() < 0}
	for i, sh := range subset {
		lam := integerLagrange(subset, sh.Index, pk.delta)
		f.add(i, lam.Mul(lam.Lsh(lam, 1), pk.gcdB))
	}
	f.add(len(subset), new(big.Int).Set(pk.gcdA))
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

// raise returns the fold's product over xs mod n by big.Int.Exp, the
// denominator inverted once: a hand-built key's combination. Every base of
// the denominator must be a unit mod n.
func (f *fold) raise(n *big.Int, xs []*big.Int) *big.Int {
	num := f.num.raise(n, xs)
	if len(f.den.at) == 0 {
		return num
	}
	den := f.den.raise(n, xs)
	num.Mul(num, den.ModInverse(den, n))
	return num.Mod(num, n)
}

// raise returns the side's product over xs mod n.
func (p *powers) raise(n *big.Int, xs []*big.Int) *big.Int {
	z := big.NewInt(1)
	for i, at := range p.at {
		z.Mul(z, new(big.Int).Exp(xs[at], p.exp[i], n))
		z.Mod(z, n)
	}
	return z
}

// raiseIn sets z to the fold's product over xs in one CRT half: each side
// on one squaring chain of mod, and the denominator inverted once, in
// words (mont.Modulus.Inv) — a Fermat inversion would be a power as long
// as the half. It reports false when the denominator is not a unit.
func (f *fold) raiseIn(mod *mont.Modulus, z *mont.Elem, xs []mont.Elem) bool {
	f.num.raiseIn(mod, z, xs)
	if len(f.den.at) == 0 {
		return true
	}
	var den mont.Elem
	f.den.raiseIn(mod, &den, xs)
	if !mod.Inv(&den, &den) {
		return false
	}
	mod.Mul(z, z, &den)
	return true
}

// raiseIn sets z to the side's product over xs in mod's half.
func (p *powers) raiseIn(mod *mont.Modulus, z *mont.Elem, xs []mont.Elem) {
	var stack [16]mont.Elem
	bs := stack[:0]
	for _, at := range p.at {
		bs = append(bs, xs[at])
	}
	mod.MulPow(z, bs, p.exp)
}

// root returns the fold's product over bases — the subset's shares, then
// x — when its e-th power is x, and nil otherwise. A key that knows its
// primes does both in each CRT half (accel.root); by the CRT, sigma^e = x
// mod N exactly when it holds mod p and mod q, so this is Verify's check.
func (pk *PublicKey) root(bases []base, f *fold) *big.Int {
	if pk.acc != nil {
		return pk.acc.root(bases, f, pk.E)
	}
	var stack [16]*big.Int
	xs := stack[:0]
	for _, b := range bases {
		xs = append(xs, b.v)
	}
	s := f.raise(pk.N, xs)
	if new(big.Int).Exp(s, pk.E, pk.N).Cmp(xs[len(xs)-1]) != 0 {
		return nil
	}
	return s
}

// proofChallenge hashes the proof's parts, each length-prefixed, after N:
// the challenge c, as a 256-bit big-endian number. The input is laid out
// in a stack buffer and hashed in one call.
func proofChallenge(pk *PublicKey, parts ...*big.Int) [32]byte {
	var stack [4096]byte
	buf := append(stack[:0], "threshsig-proof-v1"...)
	n := (pk.N.BitLen() + 7) / 8
	buf = slices.Grow(buf, n)[:len(buf)+n]
	pk.N.FillBytes(buf[len(buf)-n:])
	for _, p := range parts {
		buf = memo.AppendMagnitude(buf, p)
	}
	return sha256.Sum256(buf)
}

// isDigest reports whether c is the number whose 32 big-endian bytes are d.
func isDigest(c *big.Int, d [32]byte) bool {
	if c.Sign() < 0 || c.BitLen() > 256 {
		return false
	}
	var b [32]byte
	c.FillBytes(b[:])
	return b == d
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
