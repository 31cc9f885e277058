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
//
// The sharing, the shares and their verification are the discrete-log
// threshold kernel's (dlthresh); this package adds the per-coin base
// HashToGroup(name) and the hash of the combined element.
package threshcoin

import (
	"crypto/sha256"
	"io"
	"math/big"

	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
)

// PublicKey holds the verification material for a dealt coin.
type PublicKey struct{ dlthresh.PublicKey }

// PrivateShare is party i's coin share of the master secret.
type PrivateShare = dlthresh.PrivateShare

// CoinShare is one party's contribution to a named coin, with proof.
type CoinShare = dlthresh.Share

// Key is the dealer output.
type Key struct {
	Public PublicKey
	Shares []PrivateShare
	// Ideal is the coin's ideal functionality, which runs use.
	Ideal *Ideal
}

// Deal generates a (k, l) threshold coin over g.
func Deal(g *group.Group, k, l int, rand io.Reader) (*Key, error) {
	key, err := dlthresh.Deal(g, k, l, rand)
	if err != nil {
		return nil, err
	}
	out := &Key{Public: PublicKey{key.Public}, Shares: key.Shares}
	out.Ideal = &Ideal{pk: &out.Public, dl: key.Ideal}
	return out, nil
}

// base names the per-coin base element ĥ = HashToGroup(name): every party
// derives the same base for the same coin.
func (pk *PublicKey) base(name []byte) dlthresh.Base {
	return dlthresh.Base{Tag: name, Element: func() *big.Int {
		return pk.Group.HashToGroup("threshcoin-base", name)
	}}
}

// Share produces party i's share of the coin identified by name.
func (pk *PublicKey) Share(priv PrivateShare, name []byte, rand io.Reader) (*CoinShare, error) {
	return pk.PublicKey.Share(pk.base(name), priv, rand)
}

// VerifyShare checks a coin share for the named coin.
func (pk *PublicKey) VerifyShare(name []byte, sh *CoinShare) error {
	return pk.PublicKey.VerifyShare(pk.base(name), sh)
}

// Combine interpolates k shares into the coin's group element and returns
// its 32-byte digest. All callers with any k valid shares obtain the same
// value.
func (pk *PublicKey) Combine(name []byte, shares []*CoinShare) ([32]byte, error) {
	sigma, err := pk.PublicKey.Combine(shares)
	if err != nil {
		return [32]byte{}, err
	}
	return coin(name, sigma), nil
}

// coin is the digest of the named coin's element sigma.
func coin(name []byte, sigma *big.Int) [32]byte {
	var out [32]byte
	d := sha256.New()
	d.Write([]byte("threshcoin-out"))
	d.Write(name)
	d.Write(sigma.Bytes())
	d.Sum(out[:0])
	return out
}

// Ideal is the coin's ideal functionality (dlthresh.Ideal) with the
// coin's API: a combination of k issued shares gives the digest a real
// one gives. Its shares are verified before they are combined; an
// unverified share that was not issued fails a combination, where a real
// one would give another coin.
type Ideal struct {
	pk *PublicKey
	dl *dlthresh.Ideal
}

// Share issues party i's share of the named coin, reading rand as
// PublicKey.Share does.
func (id *Ideal) Share(priv PrivateShare, name []byte, rand io.Reader) (*CoinShare, error) {
	return id.dl.Share(id.pk.base(name), priv, rand)
}

// VerifyShare checks a share of the named coin.
func (id *Ideal) VerifyShare(name []byte, sh *CoinShare) error {
	return id.dl.VerifyShare(id.pk.base(name), sh)
}

// Combine returns the named coin's digest from k issued shares.
func (id *Ideal) Combine(name []byte, shares []*CoinShare) ([32]byte, error) {
	sigma, err := id.dl.Combine(id.pk.base(name), shares)
	if err != nil {
		return [32]byte{}, err
	}
	return coin(name, sigma), nil
}

// Bit reduces a combined coin digest to a single bit.
func Bit(digest [32]byte) bool { return digest[0]&1 == 1 }
