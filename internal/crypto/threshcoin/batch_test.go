package threshcoin

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/mont"
)

// TestVerifySharesMatchesPerShare pins the batch contract against an
// adversarial share matrix: VerifyShares accepts/rejects exactly as the
// uncached per-share path does. The batch runs first so its verdicts
// cannot be replays of the reference run.
func TestVerifySharesMatchesPerShare(t *testing.T) {
	key := testKey(t, 2, 4)
	name := []byte("batch coin")
	rng := rand.New(rand.NewSource(33))
	honest := make([]*CoinShare, 4)
	for i := range honest {
		sh, err := key.Public.Share(key.Shares[i], name, rng)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = sh
	}
	other, err := key.Public.Share(key.Shares[0], []byte("other coin"), rng)
	if err != nil {
		t.Fatal(err)
	}
	sh := honest[0]
	matrix := []*CoinShare{
		honest[0],
		honest[1],
		{Index: sh.Index, Sigma: new(big.Int).Add(sh.Sigma, big.NewInt(1)), Proof: sh.Proof}, // tampered sigma
		{Index: 2, Sigma: sh.Sigma, Proof: sh.Proof},                                         // transplanted index
		{Index: sh.Index, Sigma: sh.Sigma, Proof: nil},                                       // missing proof
		{Index: 0, Sigma: sh.Sigma, Proof: sh.Proof},                                         // index underflow
		{Index: 99, Sigma: sh.Sigma, Proof: sh.Proof},                                        // index overflow
		nil,   // nil share
		other, // replayed from another coin name
		honest[2],
	}

	batch := key.Public.VerifyShares(name, matrix)
	if len(batch) != len(matrix) {
		t.Fatalf("got %d verdicts for %d shares", len(batch), len(matrix))
	}
	ref := key.Public // copy with the memo detached: the uncached reference
	ref.cc = nil
	for i, s := range matrix {
		want := ref.VerifyShare(name, s)
		if (batch[i] == nil) != (want == nil) {
			t.Errorf("share %d: batch verdict %v, per-share verdict %v", i, batch[i], want)
		}
	}
}

// BenchmarkVerifyShare measures one uncached coin-share verification.
func BenchmarkVerifyShare(b *testing.B) {
	key := testKey(b, 2, 4)
	name := []byte("bench coin")
	sh, err := key.Public.Share(key.Shares[0], name, rand.New(rand.NewSource(43)))
	if err != nil {
		b.Fatal(err)
	}
	ref := key.Public
	ref.cc = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ref.VerifyShare(name, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifySharesBatch measures verifying all l shares of one coin
// through the batch API with a fresh memo per iteration: the amortization
// is the shared base derivation, not cross-iteration verdict replay.
func BenchmarkVerifySharesBatch(b *testing.B) {
	key := testKey(b, 2, 4)
	name := []byte("bench coin")
	rng := rand.New(rand.NewSource(44))
	shares := make([]*CoinShare, key.Public.L)
	for i := range shares {
		sh, err := key.Public.Share(key.Shares[i], name, rng)
		if err != nil {
			b.Fatal(err)
		}
		shares[i] = sh
	}
	pk := key.Public
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.cc = &tcCache{
			vks:      key.Public.cc.vks,
			bases:    make(map[string]*mont.Table),
			verified: make(map[[32]byte]error),
		}
		for j, err := range pk.VerifyShares(name, shares) {
			if err != nil {
				b.Fatalf("share %d rejected: %v", j, err)
			}
		}
	}
}
