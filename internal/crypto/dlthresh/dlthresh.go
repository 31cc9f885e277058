// Package dlthresh is the discrete-log threshold kernel under the common
// coin (threshcoin) and threshold encryption (threshenc), which the paper
// runs over one Diffie–Hellman group: a secret s Shamir-shared in the
// exponent, party i's share of a use being base^{s_i} with a DLEQ proof
// against its verification key g^{s_i}, and any k shares interpolating to
// base^s. What the base is — a coin's hash-to-group point, a ciphertext's
// C1 — and what base^s is then used for is all the two schemes add.
//
// The trusted Deal is the one set-up assumption of the deployment; a
// dealerless key generation replaces it here, through NewPublicKey, and
// nowhere else.
//
// Making a share's proof is two of its three exponentiations, and shares
// can count without one: 2K−1 bare shares that lie on one polynomial
// (CombineBare) hold K honest ones, which fix the element. So a share can
// be made bare (ShareBare) and proved later, only if it must be
// (Share.Prove): its nonce is drawn when the share is made, so the late
// proof is the one Share makes, and the caller's randomness is read
// exactly as by Share.
//
// A run shares, verifies and combines through the key's ideal
// functionality (Ideal), which issues shares as tags and hands out base^s;
// the real arithmetic here is what the crypto tests, Fig. 10's
// microbenchmarks and the equivalence test run.
package dlthresh

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
	"repro/internal/crypto/memo"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/shamir"
)

// PublicKey holds the verification material of a (K, L) sharing.
type PublicKey struct {
	Group *group.Group
	VK    *big.Int   // g^s
	VKs   []*big.Int // g^{s_i}
	K     int        // shares needed
	L     int        // total parties

	// cc holds the comb tables of the key's fixed bases and of each live
	// use's base, and memoized interpolations: parties that hold the same
	// first K shares interpolate the same element. All are pure functions
	// of public inputs, so hits are exact. Guarded: dealt keys are shared
	// across concurrent simulations.
	cc *cache
}

type cache struct {
	vk  *mont.Table   // comb of VK, built on its first power
	vks []*mont.Table // combs of the VKs, each built on its first verification

	bases    memo.Memo[string, *mont.Table]  // Base.Tag -> the comb of the use's base
	combined memo.Memo[[32]byte, *big.Int]   // first K shares' (index, V) -> Combine's element
	polys    memo.Memo[[32]byte, *polyCheck] // fit's indices, then the tail's -> onPolynomial's powers
}

// PrivateShare is party Index's share of the secret.
type PrivateShare struct {
	Index int
	S     *big.Int
}

// Share is one party's contribution to a use: V = base^{s_i}, with proof.
// A share made by ShareBare has no proof yet (Proof nil) but carries what
// makes it, which Prove spends.
type Share struct {
	Index int
	V     *big.Int
	Proof *dleq.Proof

	pending *pendingProof
}

// pendingProof is what proves a share made bare: the key, the comb of the
// use's base, the maker's key share and the proof's nonce, drawn when the
// share was made.
// A share the ideal key issued (Ideal.ShareBare) has its ideal key and
// the use's tag instead of the key, the comb and s_i.
type pendingProof struct {
	pk   *PublicKey
	base *mont.Table
	s, w *big.Int

	ideal *Ideal
	tag   []byte
}

// Base names the element the shares of one use are powers of. Tag keys
// the kernel's memos and must bind the element (a coin's name, a
// ciphertext's binding tag); Element computes it when no memo has it.
type Base struct {
	Tag     []byte
	Element func() *big.Int
}

// Key is the dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
	// Ideal is the key's ideal functionality, which runs use (Ideal).
	Ideal *Ideal
}

// Deal shares a fresh secret (k, l) over g.
func Deal(g *group.Group, k, l int, rand io.Reader) (*Key, error) {
	s, err := shamir.RandInt(rand, g.Q)
	if err != nil {
		return nil, fmt.Errorf("dlthresh: sampling secret: %w", err)
	}
	shares, err := shamir.Deal(s, k, l, g.Q, rand)
	if err != nil {
		return nil, err
	}
	priv, vks := make([]PrivateShare, l), make([]*big.Int, l)
	for i, sh := range shares {
		priv[i] = PrivateShare{Index: sh.X, S: sh.Y}
		vks[i] = g.ExpG(sh.Y)
	}
	key := &Key{Public: NewPublicKey(g, g.ExpG(s), vks, k), Shares: priv}
	key.Ideal = newIdeal(&key.Public, s)
	return key, nil
}

// NewPublicKey assembles a key from its verification material.
func NewPublicKey(g *group.Group, vk *big.Int, vks []*big.Int, k int) PublicKey {
	cc := &cache{vk: g.Table(vk, mont.TeethLong), vks: make([]*mont.Table, len(vks))}
	for i, v := range vks {
		cc.vks[i] = g.Table(v, mont.TeethLong)
	}
	return PublicKey{Group: g, VK: vk, VKs: vks, K: k, L: len(vks), cc: cc}
}

// ExpVK returns VK^e through the key's comb.
func (pk *PublicKey) ExpVK(e *big.Int) *big.Int { return pk.cc.vk.Exp(e) }

// use returns the comb of b's base, which serves every power of it:
// a share's V and its proof's nonce, and every share's verification; a
// coin's hash-to-group element costs as much as any of those powers.
func (pk *PublicKey) use(b Base) *mont.Table {
	return pk.cc.bases.Get(string(b.Tag), func() *mont.Table {
		return pk.Group.Table(b.Element(), mont.TeethShort)
	})
}

// Share produces party priv.Index's share of the use named by b, with its
// proof.
func (pk *PublicKey) Share(b Base, priv PrivateShare, rand io.Reader) (*Share, error) {
	t := pk.use(b)
	sh, err := pk.newShare(t, priv, t.Exp(priv.S), rand)
	if err != nil {
		return nil, err
	}
	sh.Prove()
	return sh, nil
}

// ShareBare produces party priv.Index's share of the use named by b
// without its proof: V alone, one exponentiation of Share's three. The
// proof's nonce is drawn from rand now, as Share draws it, so rand is left
// where Share would leave it and the share's Prove makes the proof Share
// would have made.
func (pk *PublicKey) ShareBare(b Base, priv PrivateShare, rand io.Reader) (*Share, error) {
	t := pk.use(b)
	return pk.newShare(t, priv, t.Exp(priv.S), rand)
}

// newShare draws the proof's nonce of priv's share V of the use whose
// base's comb is t, and returns the share, its proof pending.
func (pk *PublicKey) newShare(t *mont.Table, priv PrivateShare, v *big.Int, rand io.Reader) (*Share, error) {
	w, err := dleq.Nonce(pk.Group, rand)
	if err != nil {
		return nil, fmt.Errorf("dlthresh: drawing the proof's nonce: %w", err)
	}
	return &Share{Index: priv.Index, V: v, pending: &pendingProof{pk: pk, base: t, s: priv.S, w: w}}, nil
}

// Prove gives a share made by ShareBare its proof, at most once: a share
// that already has one, or was not made by ShareBare, is left as it is.
func (sh *Share) Prove() {
	p := sh.pending
	if p == nil {
		return
	}
	sh.pending = nil
	if sh.Proof != nil {
		return
	}
	if p.ideal != nil {
		sh.Proof = p.ideal.proof(sh.Index, p.tag, sh.V, p.w)
		return
	}
	g := p.pk.Group
	sh.Proof = dleq.Prove(g, g.GTable(), p.base, p.pk.VKs[sh.Index-1], sh.V, p.s, p.w)
}

// VerifyShare checks a share of the use named by b. A share whose value
// is outside (0, P) or whose proof scalars are outside [0, Q) — a negated
// copy of a good share, or one with Z + Q for Z — is a second encoding of
// a share, and is refused before its proof is checked.
func (pk *PublicKey) VerifyShare(b Base, sh *Share) error {
	if err := pk.checkShare(sh); err != nil {
		return err
	}
	g := pk.Group
	return dleq.Verify(g, g.GTable(), pk.use(b), pk.cc.vks[sh.Index-1], sh.V, sh.Proof)
}

// checkShare is VerifyShare's checks before the proof's: the index, the
// material, and the ranges.
func (pk *PublicKey) checkShare(sh *Share) error {
	if sh == nil || sh.Index < 1 || sh.Index > pk.L {
		return errors.New("dlthresh: bad share index")
	}
	if sh.V == nil || sh.Proof == nil || sh.Proof.C == nil || sh.Proof.Z == nil {
		return errors.New("dlthresh: missing share material")
	}
	q := pk.Group.Q
	if !pk.inRange(sh.V) ||
		sh.Proof.C.Sign() < 0 || sh.Proof.C.Cmp(q) >= 0 ||
		sh.Proof.Z.Sign() < 0 || sh.Proof.Z.Cmp(q) >= 0 {
		return errRange
	}
	return nil
}

// inRange reports whether v is a value a share can have: in (0, P). The
// interpolation memo's key reads magnitudes, so a value outside — a
// negated copy of a good share's, say — must be refused before a key is
// made of it.
func (pk *PublicKey) inRange(v *big.Int) bool {
	return v != nil && v.Sign() > 0 && v.Cmp(pk.Group.P) < 0
}

// combineKey digests the (index, V) pairs of the shares Combine
// interpolates, in their order, for the interpolation memo: the whole of
// what the interpolation reads. Every party combines every use, so the
// digest's input is laid out in a stack buffer, not allocated.
func combineKey(shares []*Share) [32]byte {
	var stack [1024]byte
	buf := stack[:0]
	for _, sh := range shares {
		buf = binary.BigEndian.AppendUint64(buf, uint64(sh.Index))
		buf = memo.AppendMagnitude(buf, sh.V)
	}
	return sha256.Sum256(buf)
}

// ErrInconsistent is CombineBare's verdict on shares that are not all
// powers of one base on one sharing polynomial: one of them is wrong.
var ErrInconsistent = errors.New("dlthresh: bare shares do not lie on one polynomial")

// BareQuorum is how many shares CombineBare takes: 2K−1. A (K, L) sharing
// tolerates K−1 corrupt parties, so at least K of them are honest.
func (pk *PublicKey) BareQuorum() int { return 2*pk.K - 1 }

// CombineBare interpolates unverified shares of one use: the first
// BareQuorum of them, from distinct parties, each lying on the polynomial
// of degree K−1 in the exponent that the first K interpolate, and giving a
// group element (ErrInconsistent otherwise). At least K of them are
// honest, and K points fix that polynomial, so the element's component in
// the group is base^s; it has no other, so it is base^s, the element any K
// verified shares give. A wrong share is caught here, never combined into
// a wrong element, for one membership power and a few small powers on top
// of Combine — less than verifying each share's proof.
func (pk *PublicKey) CombineBare(shares []*Share) (*big.Int, error) {
	shares, err := pk.bareQuorum(shares)
	if err != nil {
		return nil, err
	}
	for _, sh := range shares[pk.K:] {
		if !pk.onPolynomial(shares[:pk.K], sh) {
			return nil, ErrInconsistent
		}
	}
	v, err := pk.Combine(shares)
	if err != nil {
		return nil, err
	}
	// Every party that combines shares of this use agrees on v, unless a
	// wrong share got past the check above: the memoized verdict serves
	// the parties after the first.
	if !pk.Group.IsElementCached(v) {
		return nil, ErrInconsistent
	}
	return v, nil
}

// bareQuorum returns the first BareQuorum shares, after CombineBare's
// checks of their count, indices and values.
func (pk *PublicKey) bareQuorum(shares []*Share) ([]*Share, error) {
	n := pk.BareQuorum()
	if len(shares) < n {
		return nil, fmt.Errorf("dlthresh: need %d bare shares, have %d", n, len(shares))
	}
	shares = shares[:n]
	for i, sh := range shares {
		if sh.Index < 1 || sh.Index > pk.L || duplicate(shares[:i], sh.Index) {
			return nil, fmt.Errorf("dlthresh: bad or duplicate share index %d", sh.Index)
		}
		if !pk.inRange(sh.V) {
			return nil, errRange
		}
	}
	return shares, nil
}

// onPolynomial reports whether sh lies on the polynomial of degree K−1 in
// the exponent through the K shares of fit. At sh's index x the Lagrange
// basis is N_i/D_i, N_i = Π_{m≠i} (x − x_m) and D_i = Π_{m≠i} (x_i − x_m);
// times L = lcm |D_i| its coefficients are small integers, so the check
// V^L = Π V_i^{L·N_i/D_i}, negative powers moved across, is a product of
// small powers and not an interpolation. The relation holds in the group's
// component of every element, which is all the caller needs: it checks
// the combined element's membership itself.
func (pk *PublicKey) onPolynomial(fit []*Share, sh *Share) bool {
	pc := pk.polyFor(fit, sh.Index)
	var lStack, lexpStack, rStack, rexpStack [8]*big.Int
	lhs, lexp := append(lStack[:0], sh.V), append(lexpStack[:0], pc.l)
	rhs, rexp := rStack[:0], rexpStack[:0]
	for i, a := range fit {
		if pc.left[i] {
			lhs, lexp = append(lhs, a.V), append(lexp, pc.pow[i])
		} else {
			rhs, rexp = append(rhs, a.V), append(rexp, pc.pow[i])
		}
	}
	return pk.Group.MulExp(lhs, lexp).Cmp(pk.Group.MulExp(rhs, rexp)) == 0
}

// polyCheck is onPolynomial's relation for one fit and tail index, a pure
// function of their indices: V^l = Π V_i^{±pow_i}, with pow_i = |c_i| for
// c_i = l·N_i/D_i, and left[i] saying c_i < 0, so V_i's power is on V's
// side.
type polyCheck struct {
	l    *big.Int
	pow  []*big.Int
	left []bool
}

// polyFor returns the relation of fit and the tail index x, memoized by
// a digest of the exact index sequence, as the collector hands the same
// sets over again and again. The digest's input is laid out in a stack
// buffer, not allocated.
func (pk *PublicKey) polyFor(fit []*Share, x int) *polyCheck {
	var stack [128]byte
	key := stack[:0]
	for _, sh := range fit {
		key = binary.BigEndian.AppendUint64(key, uint64(sh.Index))
	}
	key = binary.BigEndian.AppendUint64(key, uint64(x))
	return pk.cc.polys.Get(sha256.Sum256(key), func() *polyCheck { return newPolyCheck(fit, x) })
}

// newPolyCheck computes the relation: N_i = Π_{m≠i} (x − x_m), D_i =
// Π_{m≠i} (x_i − x_m), l = lcm |D_i|.
func newPolyCheck(fit []*Share, x int) *polyCheck {
	num, den := make([]*big.Int, len(fit)), make([]*big.Int, len(fit))
	l := big.NewInt(1)
	for i, a := range fit {
		num[i], den[i] = big.NewInt(1), big.NewInt(1)
		for m, b := range fit {
			if m != i {
				num[i].Mul(num[i], big.NewInt(int64(x-b.Index)))
				den[i].Mul(den[i], big.NewInt(int64(a.Index-b.Index)))
			}
		}
		d := new(big.Int).Abs(den[i])
		l.Mul(l, d.Quo(d, new(big.Int).GCD(nil, nil, l, d)))
	}
	pc := &polyCheck{l: l, pow: make([]*big.Int, len(fit)), left: make([]bool, len(fit))}
	for i := range fit {
		c := new(big.Int).Mul(l, num[i])
		c.Quo(c, den[i])
		pc.left[i] = c.Sign() < 0
		pc.pow[i] = c.Abs(c)
	}
	return pc
}

var errRange = errors.New("dlthresh: share out of range")

// duplicate reports whether a share of the given index is among shares.
func duplicate(shares []*Share, index int) bool {
	for _, sh := range shares {
		if sh.Index == index {
			return true
		}
	}
	return false
}

// Combine interpolates the first K shares in the exponent: base^s, the
// same element from any K valid shares of one use. The interpolation
// reads each share's index and V and nothing else, so it is memoized by
// exactly those (combineKey), once every V has passed the range check;
// the caller gets its own copy of the element.
func (pk *PublicKey) Combine(shares []*Share) (*big.Int, error) {
	shares, err := pk.firstK(shares)
	if err != nil {
		return nil, err
	}
	v := pk.cc.combined.Get(combineKey(shares), func() *big.Int {
		var ptStack [8]shamir.Share
		var vStack [8]*big.Int
		pts, vs := ptStack[:0], vStack[:0]
		for _, sh := range shares {
			pts = append(pts, shamir.Share{X: sh.Index})
			vs = append(vs, sh.V)
		}
		return pk.Group.MulExp(vs, shamir.LagrangeSet(pts, pk.Group.Q))
	})
	return new(big.Int).Set(v), nil
}

// firstK returns the first K shares, after Combine's checks of their
// count, indices and values.
func (pk *PublicKey) firstK(shares []*Share) ([]*Share, error) {
	if len(shares) < pk.K {
		return nil, fmt.Errorf("dlthresh: need %d shares, have %d", pk.K, len(shares))
	}
	shares = shares[:pk.K]
	for i, sh := range shares {
		if duplicate(shares[:i], sh.Index) {
			return nil, fmt.Errorf("dlthresh: duplicate share %d", sh.Index)
		}
		if !pk.inRange(sh.V) {
			return nil, errRange
		}
	}
	return shares, nil
}
