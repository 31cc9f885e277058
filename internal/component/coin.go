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
	scheme[[]byte, []byte, bool]
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
// to a bit. The scheme's certificate, if it has one, certifies the coin.
func coinOf[S, V any](s scheme[[]byte, S, V], bit func(V) bool) CoinSource {
	c := scheme[[]byte, []byte, bool]{
		k: s.k, shareCost: s.shareCost, verifyCost: s.verifyCost, combineCost: s.combineCost, certCost: s.certCost,
		share: func(name []byte) ([]byte, error) {
			sh, err := s.share(name)
			if err != nil {
				return nil, err
			}
			return s.encode(sh), nil
		},
		encode: func(raw []byte) []byte { return raw },
		decode: func(raw []byte) ([]byte, error) { return append([]byte(nil), raw...), nil },
		verify: func(name, raw []byte) error {
			sh, err := s.decode(raw)
			if err != nil {
				return err
			}
			return s.verify(name, sh)
		},
		combine: func(name []byte, raws [][]byte) (bool, []byte, error) {
			// A share held here is bare or full. A bare decoding reads
			// the part both begin with, which is all combining reads.
			decode := s.decode
			if s.decodeBare != nil {
				decode = s.decodeBare
			}
			shares := make([]S, 0, len(raws))
			for _, raw := range raws {
				sh, err := decode(raw)
				if err != nil {
					return false, nil, err
				}
				shares = append(shares, sh)
			}
			v, cert, err := s.combine(name, shares)
			if err != nil {
				return false, nil, err
			}
			return bit(v), cert, nil
		},
	}
	if s.bare != nil {
		c.bare = func(raw []byte) []byte {
			sh, err := s.decode(raw) // this node's own share, as made
			if err != nil {
				panic("component: own coin share does not decode: " + err.Error())
			}
			return s.bare(sh)
		}
		c.decodeBare = func(raw []byte) ([]byte, error) {
			if _, err := s.decodeBare(raw); err != nil {
				return nil, err
			}
			return append([]byte(nil), raw...), nil
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
