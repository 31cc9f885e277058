package dlthresh

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/crypto/group"
	"repro/internal/crypto/memo"
)

// freshUses returns n uses, each named for the first time, with their
// elements computed ahead so that naming one allocates nothing.
func freshUses(g *group.Group, prefix string, n int) []Base {
	out := make([]Base, n)
	for i := range out {
		tag := []byte(fmt.Sprintf("%s %d", prefix, i))
		el := g.ExpG(g.HashToScalar("dlthresh-test", tag))
		out[i] = Base{Tag: tag, Element: func() *big.Int { return el }}
	}
	return out
}

// TestDealtSharesMatchComb: on the two smallest groups (one with a
// kernel, one answered by math/big), a use's dealt shares raised together
// are the powers the comb gives:
//   - every dealt party's bare V is Group.Exp(base, s_i), bare first on a
//     fresh use or after its comb is built by Share, whose V is the same;
//   - a share whose S is not the dealt one (S+1) takes the comb path, and
//     so does every share of a key assembled by NewPublicKey, which
//     records no dealt shares: the use's batch is never computed.
func TestDealtSharesMatchComb(t *testing.T) {
	for _, g := range group.All()[:2] {
		key, err := Deal(g, 2, 4, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		pk := &key.Public
		rng := rand.New(rand.NewSource(13))
		for _, shareFirst := range []bool{false, true} {
			b := freshUses(g, fmt.Sprintf("%s dealt, Share first %v", g.Name, shareFirst), 1)[0]
			for _, priv := range key.Shares {
				want := g.Exp(b.Element(), priv.S)
				if shareFirst {
					full, err := pk.Share(b, priv, rng)
					if err != nil {
						t.Fatal(err)
					}
					if full.V.Cmp(want) != 0 {
						t.Fatalf("%s party %d: Share's V is not base^s_i", g.Name, priv.Index)
					}
				}
				bare, err := pk.ShareBare(b, priv, rng)
				if err != nil {
					t.Fatal(err)
				}
				if bare.V.Cmp(want) != 0 {
					t.Fatalf("%s party %d (Share first %v): the batch's V is not base^s_i", g.Name, priv.Index, shareFirst)
				}
			}
			if u := pk.use(b); len(u.dealt) != pk.L {
				t.Fatalf("%s: %d dealt shares in the use's batch, want %d", g.Name, len(u.dealt), pk.L)
			}
		}

		hand := NewPublicKey(g, pk.VK, pk.VKs, pk.K)
		for _, c := range []struct {
			name string
			pk   *PublicKey
			off  int64
		}{{"S+1", pk, 1}, {"hand-built key", &hand, 0}} {
			b := freshUses(g, fmt.Sprintf("%s comb path, %s", g.Name, c.name), 1)[0]
			for _, priv := range key.Shares {
				priv.S = new(big.Int).Add(priv.S, big.NewInt(c.off))
				sh, err := c.pk.ShareBare(b, priv, rng)
				if err != nil {
					t.Fatal(err)
				}
				if want := g.Exp(b.Element(), priv.S); sh.V.Cmp(want) != 0 {
					t.Fatalf("%s %s party %d: V is not base^S", g.Name, c.name, priv.Index)
				}
			}
			if u := c.pk.use(b); u.dealt != nil {
				t.Errorf("%s %s: the use's dealt shares were computed", g.Name, c.name)
			}
		}
	}
}

// TestShareBareBudget pins what a fresh use's L bare shares allocate
// together at SG-512, (K, L) = (2, 4): at most 2 KiB, 1.7 KiB in all —
// the use's record and its tag as the memo's key, its table (its comb
// unbuilt), the four dealt shares in words (288 B), and each share with
// its V, its pending proof and its nonce — against 5.9 KiB while each use
// built a 6-tooth comb of its base on the heap (4 KiB). The base memo is
// filled past its cap once first, so that its map has grown to its full
// size and no growth is counted.
func TestShareBareBudget(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	for _, b := range freshUses(pk.Group, "budget filler", memo.Cap+1) {
		pk.use(b)
	}
	const runs, budget = 50, 2048
	uses := freshUses(pk.Group, "budget use", runs)
	rng := rand.New(rand.NewSource(14))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range uses {
		for _, priv := range key.Shares {
			if _, err := pk.ShareBare(b, priv, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > budget {
		t.Errorf("a fresh use's %d bare shares: %d B, budget %d", pk.L, got, budget)
	}
}

// BenchmarkShareBareAll measures all L bare shares of a fresh use at
// (K, L) = (2, 4): what a use costs its parties before anyone proves or
// verifies a share.
func BenchmarkShareBareAll(b *testing.B) {
	key := testKey(b, 2, 4)
	pk := &key.Public
	uses := freshUses(pk.Group, "bench fresh use", b.N)
	rng := rand.New(rand.NewSource(15))
	b.ReportAllocs()
	b.ResetTimer()
	for _, use := range uses {
		for _, priv := range key.Shares {
			if _, err := pk.ShareBare(use, priv, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}
