package crypto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"repro/internal/crypto/group"
	"repro/internal/crypto/pksig"
	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
)

// Suite is one node's complete cryptographic toolkit, produced by a trusted
// dealer before deployment (the paper installs keys on the devices the same
// way). Index is 1-based, matching threshold share indices.
type Suite struct {
	Index int
	N, F  int

	// SigLen is the per-frame signature's length in bytes (Config.PKScheme).
	SigLen int

	// Threshold signatures: Low has threshold f+1 (PRBC DONE proofs and
	// the shared-coin; one honest contribution suffices), High has
	// threshold 2f+1 (CBC quorum certificates).
	TSLow       *threshsig.PublicKey
	TSLowShare  threshsig.PrivateShare
	TSHigh      *threshsig.PublicKey
	TSHighShare threshsig.PrivateShare

	// Threshold coin flipping (BEAT's coin), threshold f+1.
	TC      *threshcoin.PublicKey
	TCShare threshcoin.PrivateShare

	// Threshold encryption, threshold f+1.
	TE      *threshenc.PublicKey
	TEShare threshenc.PrivateShare

	// Ops make, check and combine the shares of the four keys above.
	Ops Ops

	Cost CostModel
}

// Ops are the share operations a run performs with a suite's threshold
// keys. Deal hands out each key's ideal functionality (threshsig.Ideal,
// threshcoin.Ideal, threshenc.Ideal), which decides every verdict and
// output as the real arithmetic does at a fraction of its host time; the
// keys' own methods, the real arithmetic, stand in their place only
// under RealSuites. Encryption is the real arithmetic either way, since
// a ciphertext's bytes reach hashes (the ideal key only remembers its KEM
// secret), and so is checking a combined signature, which is cheap and
// reads the real signature.
type Ops struct {
	Low, High SigScheme
	Coin      CoinScheme
	Dec       DecScheme
}

// SigScheme is threshold signing: *threshsig.PublicKey or
// *threshsig.Ideal.
type SigScheme interface {
	SignBare(priv threshsig.PrivateShare, msg []byte, rand io.Reader) (*threshsig.SigShare, error)
	VerifyShare(msg []byte, sh *threshsig.SigShare) error
	Combine(msg []byte, shares []*threshsig.SigShare) (*threshsig.Signature, error)
}

// CoinScheme is threshold coin flipping: *threshcoin.PublicKey or
// *threshcoin.Ideal.
type CoinScheme interface {
	Share(priv threshcoin.PrivateShare, name []byte, rand io.Reader) (*threshcoin.CoinShare, error)
	VerifyShare(name []byte, sh *threshcoin.CoinShare) error
	Combine(name []byte, shares []*threshcoin.CoinShare) ([32]byte, error)
}

// DecScheme is threshold decryption: *threshenc.PublicKey or
// *threshenc.Ideal.
type DecScheme interface {
	Encrypt(plaintext []byte, rand io.Reader) (*threshenc.Ciphertext, error)
	DecryptShareBare(priv threshenc.PrivateShare, ct *threshenc.Ciphertext, rand io.Reader) (*threshenc.DecShare, error)
	VerifyShare(ct *threshenc.Ciphertext, sh *threshenc.DecShare) error
	Combine(ct *threshenc.Ciphertext, shares []*threshenc.DecShare) ([]byte, error)
	CombineBare(ct *threshenc.Ciphertext, shares []*threshenc.DecShare) ([]byte, error)
}

// realSuites says Deal hands out the real arithmetic in Ops (RealSuites).
var realSuites atomic.Bool

// RealSuites makes Deal, and DealCached on its own cache, hand out suites
// whose Ops are the keys themselves, until the returned function is
// called. It is a test seam: the crypto packages' tests and Fig. 10's
// microbenchmarks use the keys directly, and the one test that compares
// whole runs under both (equivalence_test.go) goes through it. Nothing
// else may call it.
func RealSuites() (restore func()) {
	realSuites.Store(true)
	return func() { realSuites.Store(false) }
}

// Config selects parameter sets for a deal.
type Config struct {
	PKScheme     pksig.Scheme // per-frame signature scheme
	ThresholdSet string       // e.g. "TS-512"; picks the RSA modulus size
	GroupSet     string       // e.g. "SG-512"; picks the DH group for coin/enc
}

// LightConfig returns the lightest parameter choice (the configuration the
// paper selects after its Fig. 10 study: secp160r1 + BN158).
func LightConfig() Config {
	return Config{PKScheme: pksig.SchemeECDSAP224, ThresholdSet: "TS-512", GroupSet: "SG-512"}
}

// HeavyConfig returns a heavier choice (the paper's secp192r1 + BN254
// comparison point).
func HeavyConfig() Config {
	return Config{PKScheme: pksig.SchemeECDSAP256, ThresholdSet: "TS-768", GroupSet: "SG-768"}
}

// subReader derives an independent deterministic reader from the master
// randomness source by consuming exactly 8 bytes. Each threshold scheme
// is dealt from its own sub-stream: a dealer draws a value-dependent
// number of bytes (rejection sampling), so on one shared stream a change
// to one scheme's dealing would shift the keys of every scheme dealt after
// it — and the common coins derived from them.
func subReader(master io.Reader) (io.Reader, error) {
	var seed [8]byte
	if _, err := io.ReadFull(master, seed[:]); err != nil {
		return nil, fmt.Errorf("crypto: deriving sub-seed: %w", err)
	}
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(seed[:])))), nil
}

// Deal runs the trusted dealer for an N = 3f+1 network and returns one
// suite per node. rand should be a seeded reader for reproducible
// simulations.
func Deal(n, f int, cfg Config, masterRand io.Reader) ([]*Suite, error) {
	if n != 3*f+1 {
		return nil, fmt.Errorf("crypto: need n = 3f+1, got n=%d f=%d", n, f)
	}
	fix, err := threshsig.FixtureByName(cfg.ThresholdSet)
	if err != nil {
		return nil, err
	}
	grp, err := group.ByName(cfg.GroupSet)
	if err != nil {
		return nil, err
	}

	subs := make([]io.Reader, 4)
	for i := range subs {
		if subs[i], err = subReader(masterRand); err != nil {
			return nil, err
		}
	}
	tsLow, err := threshsig.Deal(fix.Name, fix.P, fix.Q, f+1, n, subs[0])
	if err != nil {
		return nil, fmt.Errorf("crypto: dealing low-threshold signature: %w", err)
	}
	tsHigh, err := threshsig.Deal(fix.Name, fix.P, fix.Q, 2*f+1, n, subs[1])
	if err != nil {
		return nil, fmt.Errorf("crypto: dealing high-threshold signature: %w", err)
	}
	tc, err := threshcoin.Deal(grp, f+1, n, subs[2])
	if err != nil {
		return nil, fmt.Errorf("crypto: dealing coin: %w", err)
	}
	te, err := threshenc.Deal(grp, f+1, n, subs[3])
	if err != nil {
		return nil, fmt.Errorf("crypto: dealing encryption: %w", err)
	}

	ops := Ops{Low: tsLow.Ideal, High: tsHigh.Ideal, Coin: tc.Ideal, Dec: te.Ideal}
	if realSuites.Load() {
		ops = Ops{Low: &tsLow.Public, High: &tsHigh.Public, Coin: &tc.Public, Dec: &te.Public}
	}
	cost := CostFor(cfg.ThresholdSet)
	suites := make([]*Suite, n)
	for i := 0; i < n; i++ {
		suites[i] = &Suite{
			Index:       i + 1,
			N:           n,
			F:           f,
			SigLen:      cfg.PKScheme.SignatureLen(),
			TSLow:       &tsLow.Public,
			TSLowShare:  tsLow.Shares[i],
			TSHigh:      &tsHigh.Public,
			TSHighShare: tsHigh.Shares[i],
			TC:          &tc.Public,
			TCShare:     tc.Shares[i],
			TE:          &te.Public,
			TEShare:     te.Shares[i],
			Ops:         ops,
			Cost:        cost,
		}
	}
	return suites, nil
}

// SignatureSizes reports (scheme name, bytes) rows for Fig. 10c: the five
// public-key schemes and the six threshold parameter sets.
func SignatureSizes() (pk []struct {
	Name string
	Size int
}, thr []struct {
	Name string
	Size int
}) {
	for _, s := range pksig.AllSchemes() {
		pk = append(pk, struct {
			Name string
			Size int
		}{string(s), s.SignatureLen()})
	}
	for _, f := range threshsig.Fixtures() {
		thr = append(thr, struct {
			Name string
			Size int
		}{f.Name, (f.P.BitLen() + f.Q.BitLen() + 7) / 8})
	}
	return pk, thr
}
