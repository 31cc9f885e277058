package threshcoin_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/crypto/group"
	"repro/internal/crypto/threshcoin"
)

// TestKnownAnswers pins the dealer's and the prover's randomness order and
// every byte a coin puts on the air, per group: the vectors were recorded
// before the share path moved onto the discrete-log kernel and must never
// change with a refactor (a moved vector moves every common coin, and with
// it every golden).
func TestKnownAnswers(t *testing.T) {
	want := map[string][3]string{ // keys, the four shares' wire bytes, coin digest
		"SG-512": {"26585c5191fed8ae9fc06d97e045787f8e7e2958cef46086133008aa2fa3d14f", "4c007bbce9b1a3b6867652b46521640c8250a53d72a4e1ea8876a22033e34587", "d10d11936e371b75b6b5a0db71de8f9b75e44992e206048964ed87cd97555799"},
		"SG-768": {"0e9e4b9bd29acf32a1e758dbeaf0d996da53c2f952ed4848e074e9dbfe82ab2d", "805edcb782739a8453db17dc3d136f8643a61cb681af1ddc23696a2a104f451d", "b18185b7a1c165bca09776e43899f12a667c951e04f854cc4f4a4d86bda98e13"},
	}
	for _, g := range group.All()[:2] {
		key, err := threshcoin.Deal(g, 2, 4, rand.New(rand.NewSource(0x5eed)))
		if err != nil {
			t.Fatal(err)
		}
		keys := sha256.New()
		keys.Write(key.Public.VK.Bytes())
		for _, vk := range key.Public.VKs {
			keys.Write(vk.Bytes())
		}
		name := []byte("kat/coin/1")
		rng := rand.New(rand.NewSource(7))
		wire := sha256.New()
		shares := make([]*threshcoin.CoinShare, 4)
		for i := range shares {
			if shares[i], err = key.Public.Share(key.Shares[i], name, rng); err != nil {
				t.Fatal(err)
			}
			if err := key.Public.VerifyShare(name, shares[i]); err != nil {
				t.Fatalf("%s: share %d rejected: %v", g.Name, i+1, err)
			}
			wire.Write(component.EncodeDLShare(g, shares[i]))
		}
		coin, err := key.Public.Combine(name, []*threshcoin.CoinShare{shares[3], shares[1]})
		if err != nil {
			t.Fatal(err)
		}
		got := [3]string{hex.EncodeToString(keys.Sum(nil)), hex.EncodeToString(wire.Sum(nil)), hex.EncodeToString(coin[:])}
		if got != want[g.Name] {
			t.Errorf("%s:\n got  %q\n want %q", g.Name, got, want[g.Name])
		}
	}
}
