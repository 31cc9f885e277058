package threshsig

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/memo"
)

// combineOutcome is what Combine answers: the signature's bytes, or the
// error's text.
func combineOutcome(pk *PublicKey, msg []byte, shares []*SigShare) string {
	sig, err := pk.Combine(msg, shares)
	if err != nil {
		return "error: " + err.Error()
	}
	return "sig: " + hex.EncodeToString(sig.Bytes())
}

// bareShares returns every party's bare share of msg.
func bareShares(t testing.TB, key *Key, msg []byte, seed int64) []*SigShare {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*SigShare, len(key.Shares))
	for i, priv := range key.Shares {
		sh, err := key.Public.SignBare(priv, msg, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sh
	}
	return out
}

// combinePin is the digest of every outcome TestCombineMatchesPlain
// reads, recorded from the combination that raised each share's power on
// its own, recombined it, and verified the product with Verify: the
// one-pass combination answers every input with the same bytes and the
// same error text.
const combinePin = "e6d039fab3add2bc1a34511eeec1e2cd74d203ef63a7b111444f10379dc64025"

// TestCombineMatchesPlain: a dealt key (CRT halves, memos) and the same
// key without them combine every subset alike, in any order and with a bad
// share planted anywhere — X+1, N−X (whose even powers are the honest
// share's), a multiple of p, a second share of one index — to the same
// signature bytes or the same error text; every honest subset combines to
// a signature that verifies, one per message. The outcomes' digest is
// pinned.
func TestCombineMatchesPlain(t *testing.T) {
	h := sha256.New()
	for _, kl := range [][2]int{{2, 4}, {3, 4}, {5, 7}, {9, 13}} {
		k, l := kl[0], kl[1]
		key := testKey(t, k, l)
		fast, plain := &key.Public, slowKey(key.Public)
		p := fixP(t)
		rng := rand.New(rand.NewSource(int64(100*k + l)))
		for m := 0; m < 2; m++ {
			msg := []byte(fmt.Sprintf("combine %d of %d, message %d", k, l, m))
			all := bareShares(t, key, msg, int64(m))
			var honest string
			for trial := 0; trial < 12; trial++ {
				perm := rng.Perm(l)
				use := make([]*SigShare, k+trial%2) // Combine reads the first k
				for i := range use {
					use[i] = all[perm[i]]
				}
				at := rng.Intn(k)
				sh := *use[at]
				planted := trial % 6
				switch planted {
				case 1:
					sh.X = new(big.Int).Add(sh.X, one)
				case 2:
					sh.X = new(big.Int).Sub(fast.N, sh.X)
				case 3:
					sh.X = new(big.Int).Mul(p, big.NewInt(int64(1+rng.Intn(1000))))
				case 4:
					sh.Index = use[(at+1)%k].Index
				}
				use[at] = &sh
				got, want := combineOutcome(fast, msg, use), combineOutcome(plain, msg, use)
				if got != want {
					t.Fatalf("(%d,%d) message %d trial %d: dealt key %s, plain key %s", k, l, m, trial, got, want)
				}
				h.Write([]byte(got))
				if planted == 0 || planted == 2 || planted == 5 {
					if got[:4] != "sig:" {
						t.Fatalf("(%d,%d) trial %d: honest subset: %s", k, l, trial, got)
					}
					if honest != "" && got != honest {
						t.Fatalf("(%d,%d) trial %d: two signatures on one message", k, l, trial)
					}
					honest = got
				}
			}
			sig, err := fast.Combine(msg, all[:k])
			if err != nil {
				t.Fatal(err)
			}
			if err := plain.Verify(msg, sig); err != nil {
				t.Errorf("(%d,%d): the combined signature does not verify: %v", k, l, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != combinePin {
		t.Errorf("outcome digest %s, want %s", got, combinePin)
	}
}

var fuzzKey = sync.OnceValue(func() *Key {
	fix, err := FixtureByName("TS-512")
	if err != nil {
		panic(err)
	}
	key, err := Deal(fix.Name, fix.P, fix.Q, 3, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		panic(err)
	}
	return key
})

// FuzzCombineMatchesPlain: for any order of the parties' bare shares and
// any X put in one of them, the dealt key and the plain key give the same
// signature bytes or the same error text.
func FuzzCombineMatchesPlain(f *testing.F) {
	f.Add(uint64(0), uint8(0), []byte(nil))
	f.Add(uint64(1), uint8(1), []byte{1})
	f.Add(uint64(5), uint8(2), []byte{0})
	f.Add(uint64(23), uint8(0), fixP(f).Bytes())
	f.Fuzz(func(t *testing.T, order uint64, at uint8, x []byte) {
		key := fuzzKey()
		msg := []byte("fuzz combine")
		all := bareShares(t, key, msg, 1)
		perm := rand.New(rand.NewSource(int64(order))).Perm(len(all))
		use := make([]*SigShare, len(all))
		for i := range use {
			use[i] = all[perm[i]]
		}
		if len(x) > 0 {
			sh := *use[int(at)%len(use)]
			sh.X = new(big.Int).SetBytes(x)
			use[int(at)%len(use)] = &sh
		}
		if got, want := combineOutcome(&key.Public, msg, use), combineOutcome(slowKey(key.Public), msg, use); got != want {
			t.Fatalf("order %d, X %x at %d: dealt key %s, plain key %s", order, x, at, got, want)
		}
	})
}

// BenchmarkCombine measures one combination of three bare shares at
// (k, l) = (3, 4), TS-512, on the dealt key: the answer memo is emptied
// before each, so every iteration combines in full.
func BenchmarkCombine(b *testing.B) {
	key := testKey(b, 3, 4)
	msg := []byte("bench combine")
	shares := bareShares(b, key, msg, 41)[:3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.Public.cc.combos = memo.Memo[[32]byte, combination]{}
		if _, err := key.Public.Combine(msg, shares); err != nil {
			b.Fatal(err)
		}
	}
}
