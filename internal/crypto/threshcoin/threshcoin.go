// Package threshcoin implements the Cachin–Kursawe–Shoup threshold coin
// (Diffie–Hellman based, "Random Oracles in Constantinople", PODC 2000).
//
// This is the "threshold coin flipping" primitive BEAT substitutes for
// threshold signatures in its ABA common coin: shares are single group
// elements with a DLEQ validity proof, combination is Lagrange
// interpolation in the exponent, and the coin value is a hash of the
// combined element. Unlike a threshold signature the combined value needs
// no third-party verification — every node combines shares itself — which
// is why the scheme is cheaper (the effect visible in the paper's
// Fig. 10b and Fig. 12a).
package threshcoin

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/shamir"
)

// PublicKey holds the verification material for a dealt coin.
type PublicKey struct {
	Group *group.Group
	VK    *big.Int   // g^s
	VKs   []*big.Int // g^{s_i}
	K     int        // shares needed
	L     int        // total parties

	// cc is attached by Deal: the comb tables of the verification keys,
	// memoized per-coin base elements (with their combs) and
	// share-verification verdicts. All are pure functions of public
	// inputs, so hits are exact; keys built without Deal run the same
	// code on throwaway tables. Guarded: dealt keys are shared across
	// concurrent simulations.
	cc *tcCache
}

type tcCache struct {
	vks []*mont.Table // combs of the VKs, each built on its first verification

	mu       sync.Mutex
	bases    map[string]*mont.Table // coin name -> HashToGroup base
	verified map[[32]byte]error     // (name, share) -> verdict
}

// cacheCap bounds each memo map; overflow clears the map (a safety
// valve — a sweep cell's working set is far smaller).
const cacheCap = 4096

// PrivateShare is party i's coin share of the master secret.
type PrivateShare struct {
	Index int
	S     *big.Int
}

// CoinShare is one party's contribution to a named coin, with proof.
type CoinShare struct {
	Index int
	Sigma *big.Int
	Proof *dleq.Proof
}

// Key is the dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
}

// Deal generates a (k, l) threshold coin over g.
func Deal(g *group.Group, k, l int, rand io.Reader) (*Key, error) {
	s, err := shamir.RandInt(rand, g.Q)
	if err != nil {
		return nil, fmt.Errorf("threshcoin: sampling secret: %w", err)
	}
	shares, err := shamir.Deal(s, k, l, g.Q, rand)
	if err != nil {
		return nil, err
	}
	priv := make([]PrivateShare, l)
	vks := make([]*big.Int, l)
	for i, sh := range shares {
		priv[i] = PrivateShare{Index: sh.X, S: sh.Y}
		vks[i] = g.ExpG(sh.Y)
	}
	cc := &tcCache{
		vks:      make([]*mont.Table, l),
		bases:    make(map[string]*mont.Table),
		verified: make(map[[32]byte]error),
	}
	for i, vk := range vks {
		cc.vks[i] = g.Table(vk, mont.TeethLong)
	}
	return &Key{
		Public: PublicKey{Group: g, VK: g.ExpG(s), VKs: vks, K: k, L: l, cc: cc},
		Shares: priv,
	}, nil
}

// vkTable returns the comb of party index's verification key.
func (pk *PublicKey) vkTable(index int) *mont.Table {
	if pk.cc == nil {
		return pk.Group.Table(pk.VKs[index-1], mont.TeethShort)
	}
	return pk.cc.vks[index-1]
}

// base returns the per-coin base element ĥ = HashToGroup(name) as a comb
// table, memoized: every party derives the same base for the same coin
// and raises it to its share and its proof nonce, every share's
// verification raises it once more, and the hash-to-group cofactor
// exponentiation costs as much as any of those powers.
func (pk *PublicKey) base(name []byte) *mont.Table {
	derive := func() *mont.Table {
		return pk.Group.Table(pk.Group.HashToGroup("threshcoin-base", name), mont.TeethShort)
	}
	if pk.cc == nil {
		return derive()
	}
	pk.cc.mu.Lock()
	h := pk.cc.bases[string(name)]
	pk.cc.mu.Unlock()
	if h != nil {
		return h
	}
	h = derive()
	pk.cc.mu.Lock()
	if len(pk.cc.bases) >= cacheCap {
		clear(pk.cc.bases)
	}
	pk.cc.bases[string(name)] = h
	pk.cc.mu.Unlock()
	return h
}

// Share produces party i's share of the coin identified by name.
func (pk *PublicKey) Share(priv PrivateShare, name []byte, rand io.Reader) (*CoinShare, error) {
	h := pk.base(name)
	sigma := h.Exp(priv.S)
	proof, err := dleq.Prove(pk.Group, pk.Group.GTable(), h, pk.VKs[priv.Index-1], sigma, priv.S, rand)
	if err != nil {
		return nil, fmt.Errorf("threshcoin: proving share: %w", err)
	}
	return &CoinShare{Index: priv.Index, Sigma: sigma, Proof: proof}, nil
}

// VerifyShare checks a coin share for the named coin. Verdicts are
// memoized per (name, share): every party verifies every other party's
// share of each coin, and the verdict is a pure function of the inputs.
func (pk *PublicKey) VerifyShare(name []byte, sh *CoinShare) error {
	if sh == nil || sh.Index < 1 || sh.Index > pk.L {
		return errors.New("threshcoin: bad share index")
	}
	if sh.Sigma == nil || sh.Proof == nil || sh.Proof.C == nil || sh.Proof.Z == nil {
		return errors.New("threshcoin: missing share material")
	}
	verify := func() error {
		return dleq.Verify(pk.Group, pk.Group.GTable(), pk.base(name), pk.vkTable(sh.Index), sh.Sigma, sh.Proof)
	}
	if pk.cc == nil {
		return verify()
	}
	key := shareKey(name, sh)
	pk.cc.mu.Lock()
	verdict, hit := pk.cc.verified[key]
	pk.cc.mu.Unlock()
	if hit {
		return verdict
	}
	err := verify()
	pk.cc.mu.Lock()
	if len(pk.cc.verified) >= cacheCap {
		clear(pk.cc.verified)
	}
	pk.cc.verified[key] = err
	pk.cc.mu.Unlock()
	return err
}

// VerifyShares checks a batch of shares of one coin, returning one
// verdict per share in order. The batch amortizes the per-coin base
// derivation and replays memoized verdicts through dleq.VerifyBatch's
// shared fixed-point work; each proof is still checked individually and
// exactly (see dleq.VerifyBatch for why no randomized-linear-combination
// shortcut is sound here), so a batch rejects precisely the shares
// per-share verification rejects.
func (pk *PublicKey) VerifyShares(name []byte, shares []*CoinShare) []error {
	errs := make([]error, len(shares))
	pk.base(name) // derive (and memoize) the base once for the whole batch
	for i, sh := range shares {
		errs[i] = pk.VerifyShare(name, sh)
	}
	return errs
}

// shareKey digests a (coin name, share) pair for the verdict memo,
// covering every byte verification reads.
func shareKey(name []byte, sh *CoinShare) [32]byte {
	h := sha256.New()
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(name)))
	h.Write(lb[:])
	h.Write(name)
	binary.BigEndian.PutUint32(lb[:], uint32(sh.Index))
	h.Write(lb[:])
	for _, v := range []*big.Int{sh.Sigma, sh.Proof.C, sh.Proof.Z} {
		b := v.Bytes()
		binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
		h.Write(lb[:])
		h.Write(b)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Combine interpolates k shares into the coin's group element and returns
// its 32-byte digest. All callers with any k valid shares obtain the same
// value.
func (pk *PublicKey) Combine(name []byte, shares []*CoinShare) ([32]byte, error) {
	var out [32]byte
	if len(shares) < pk.K {
		return out, fmt.Errorf("threshcoin: need %d shares, have %d", pk.K, len(shares))
	}
	use := shares[:pk.K]
	pts := make([]shamir.Share, pk.K)
	seen := make(map[int]bool, pk.K)
	for i, sh := range use {
		if seen[sh.Index] {
			return out, fmt.Errorf("threshcoin: duplicate share %d", sh.Index)
		}
		seen[sh.Index] = true
		pts[i] = shamir.Share{X: sh.Index}
	}
	lams := shamir.LagrangeSet(pts, pk.Group.Q)
	sigmas := make([]*big.Int, pk.K)
	for i, sh := range use {
		sigmas[i] = sh.Sigma
	}
	sigma := pk.Group.MulExp(sigmas, lams)
	d := sha256.New()
	d.Write([]byte("threshcoin-out"))
	d.Write(name)
	d.Write(sigma.Bytes())
	copy(out[:], d.Sum(nil))
	return out, nil
}

// Bit reduces a combined coin digest to a single bit.
func Bit(digest [32]byte) bool { return digest[0]&1 == 1 }

// ShareLen returns the approximate serialized share size (element + proof).
func (pk *PublicKey) ShareLen() int {
	return pk.Group.ElementLen() + dleq.Size(pk.Group) + 2
}
