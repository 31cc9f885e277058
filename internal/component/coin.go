package component

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/crypto/threshcoin"
)

// CoinSource is a common coin as CachinABA's share collector sees it: a
// threshold scheme over the coin's name whose shares stay encoded until
// their verification has been charged, and whose value is one bit. The
// paper compares two: threshold signatures (ABA-SC, HoneyBadgerBFT/Dumbo)
// and threshold coin flipping (ABA-CP, BEAT). Bracha's ABA (ABA-LC) needs
// none — its coin is local randomness.
type CoinSource struct {
	scheme[[]byte, coinShare, bool]
}

// coinShare is a coin share as the coin's collector holds it: a peer's
// encoded, bare or full, as it came on the air; this node's own in the
// form it first goes on the air in — bare, under a scheme that has one —
// with full to encode it in full, which makes its proof, should it have to
// go so.
type coinShare struct {
	raw  []byte
	full func() []byte // nil: raw is the only form there is
}

// SigCoin derives the coin from a threshold signature on the coin name
// (hash of the unique combined signature), as HoneyBadgerBFT does.
func SigCoin(env *Env) CoinSource {
	return coinOf(sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare), func(sig []byte) bool {
		d := sha256.Sum256(sig)
		return d[0]&1 == 1
	})
}

// FlipCoin is BEAT's threshold coin flipping (Cachin–Kursawe–Shoup PRF).
func FlipCoin(env *Env) CoinSource {
	return coinOf(flipScheme(env), threshcoin.Bit)
}

// coinOf turns a scheme over coin names into a coin: the same scheme with
// decoding deferred into verification and combination — a full coin share
// is charged its verification before anything looks inside it; a bare one
// is taken on sight, as under any scheme — and the combined value reduced
// to a bit. This node's share is encoded as it goes on the air, so a
// share made bare is proved only if its tally turns to proofs, as under
// the scheme itself. The scheme's certificate, if it has one, certifies
// the coin.
func coinOf[S, V any](s scheme[[]byte, S, V], bit func(V) bool) CoinSource {
	held := func(raw []byte) coinShare { return coinShare{raw: append([]byte(nil), raw...)} }
	bitOf := func(combine func([]byte, []S) (V, []byte, error)) func([]byte, []coinShare) (bool, []byte, error) {
		return func(name []byte, got []coinShare) (bool, []byte, error) {
			// A share held here is bare or full. A bare decoding reads
			// the part both begin with, which is all combining reads.
			decode := s.decode
			if s.decodeBare != nil {
				decode = s.decodeBare
			}
			shares := make([]S, 0, len(got))
			for _, h := range got {
				sh, err := decode(h.raw)
				if err != nil {
					return false, nil, err
				}
				shares = append(shares, sh)
			}
			v, cert, err := combine(name, shares)
			if err != nil {
				return false, nil, err
			}
			return bit(v), cert, nil
		}
	}
	c := scheme[[]byte, coinShare, bool]{
		k: s.k, kBare: s.kBare, shareCost: s.shareCost, verifyCost: s.verifyCost, combineCost: s.combineCost, certCost: s.certCost,
		share: func(name []byte) (coinShare, error) {
			sh, err := s.share(name)
			if err != nil {
				return coinShare{}, err
			}
			if s.bare == nil {
				return coinShare{raw: s.encode(sh)}, nil
			}
			return coinShare{raw: s.bare(sh), full: func() []byte { return s.encode(sh) }}, nil
		},
		encode: func(sh coinShare) []byte {
			if sh.full != nil {
				return sh.full()
			}
			return sh.raw
		},
		decode: func(raw []byte) (coinShare, error) { return held(raw), nil },
		verify: func(name []byte, sh coinShare) error {
			full, err := s.decode(sh.raw)
			if err != nil {
				return err
			}
			return s.verify(name, full)
		},
		combine: bitOf(s.combine),
	}
	if s.bare != nil {
		c.combineBare = bitOf(s.combineBare)
		c.bare = func(sh coinShare) []byte { return sh.raw } // this node's own share, bare as made
		c.decodeBare = func(raw []byte) (coinShare, error) {
			if _, err := s.decodeBare(raw); err != nil {
				return coinShare{}, err
			}
			return held(raw), nil
		}
	}
	if s.check != nil {
		c.check = func(name, cert []byte) (bool, error) {
			v, err := s.check(name, cert)
			return err == nil && bit(v), err
		}
	}
	return CoinSource{c}
}

// coinName builds the canonical coin identifier. Batched parallel ABA uses
// one coin per round shared across instances (slot = sharedSlot), exactly
// the optimization Sec. IV-C2 argues is safe on a broadcast channel.
func coinName(session uint32, epoch uint16, slot uint8, round uint16) []byte {
	name := make([]byte, 0, 16)
	name = append(name, "aba-coin"...)
	name = binary.BigEndian.AppendUint32(name, session)
	name = binary.BigEndian.AppendUint16(name, epoch)
	name = append(name, slot)
	return binary.BigEndian.AppendUint16(name, round)
}
