package component

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshsig"
)

// Coin is a common coin as CachinABA draws it: a threshold scheme over the
// coin's name, whose shares go through the one share collector as every
// tally's do, and bit, which reads the coin off the combined value. The
// paper compares two: threshold signatures (ABA-SC, HoneyBadgerBFT/Dumbo)
// and threshold coin flipping (ABA-CP, BEAT). Bracha's ABA (ABA-LC) needs
// none — its coin is local randomness.
type Coin[S, V any] struct {
	scheme[[]byte, S, V]
	bit func(V) bool
}

// SigCoin derives the coin from a threshold signature on the coin name
// (hash of the unique combined signature), as HoneyBadgerBFT does. The
// signature is the coin's certificate.
func SigCoin(env *Env) Coin[*threshsig.SigShare, []byte] {
	return Coin[*threshsig.SigShare, []byte]{sigScheme(env, false), func(sig []byte) bool {
		d := sha256.Sum256(sig)
		return d[0]&1 == 1
	}}
}

// FlipCoin is BEAT's threshold coin flipping (Cachin–Kursawe–Shoup PRF).
func FlipCoin(env *Env) Coin[*threshcoin.CoinShare, [32]byte] {
	return Coin[*threshcoin.CoinShare, [32]byte]{flipScheme(env), threshcoin.Bit}
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
