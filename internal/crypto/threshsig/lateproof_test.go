package threshsig_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/component"
	"repro/internal/crypto/threshsig"
)

// TestLateProofMatchesSign: a share made bare and proved later is the
// share Sign makes. For TS-512 and TS-1024, at three reader seeds, every
// party's SignBare share
//   - has no proof until asked, and its bare encoding is Sign's;
//   - leaves the reader where Sign leaves it: the next draws are equal;
//   - encodes in full (component.EncodeSigShare, which proves it)
//     byte-for-byte as Sign's share from the same reader state;
//   - is proved once: asking again allocates nothing and keeps the proof;
//   - passes VerifyShare.
func TestLateProofMatchesSign(t *testing.T) {
	for _, set := range []string{"TS-512", "TS-1024"} {
		fix, err := threshsig.FixtureByName(set)
		if err != nil {
			t.Fatal(err)
		}
		key, err := threshsig.Deal(fix.Name, fix.P, fix.Q, 2, 4, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		pk := &key.Public
		for seed := int64(1); seed <= 3; seed++ {
			msg := []byte(fmt.Sprintf("%s late proof, seed %d", set, seed))
			eager, lazy := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for _, priv := range key.Shares {
				what := fmt.Sprintf("%s, seed %d, party %d", set, seed, priv.Index)
				full, err := pk.Sign(priv, msg, eager)
				if err != nil {
					t.Fatal(err)
				}
				late, err := pk.SignBare(priv, msg, lazy)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := eager.Int63(), lazy.Int63(); a != b {
					t.Fatalf("%s: readers part after the share: next draws %d and %d", what, a, b)
				}
				if late.C != nil || late.Z != nil {
					t.Fatalf("%s: SignBare made a proof", what)
				}
				if !bytes.Equal(component.EncodeBareSigShare(pk, late), component.EncodeBareSigShare(pk, full)) {
					t.Fatalf("%s: bare encodings differ", what)
				}
				if got, want := component.EncodeSigShare(pk, late), component.EncodeSigShare(pk, full); !bytes.Equal(got, want) {
					t.Fatalf("%s: late share encodes as\n %x\nSign's as\n %x", what, got, want)
				}
				c, z := late.C, late.Z
				if allocs := testing.AllocsPerRun(10, late.Prove); allocs != 0 || late.C != c || late.Z != z {
					t.Fatalf("%s: a second Prove allocated %v times or changed the proof", what, allocs)
				}
				if err := pk.VerifyShare(msg, late); err != nil {
					t.Fatalf("%s: VerifyShare: %v", what, err)
				}
			}
		}
	}
}

// TestLateProofConcurrent: cells that run at once share a dealt key and
// its memo, so their pending proofs read one per-message context. Four
// goroutines, each a cell, make every party's bare share of the same
// messages on one key, then prove them all; each share must encode as
// Sign's from the same reader on a key dealt apart.
func TestLateProofConcurrent(t *testing.T) {
	fix, err := threshsig.FixtureByName("TS-512")
	if err != nil {
		t.Fatal(err)
	}
	deal := func() *threshsig.Key {
		key, err := threshsig.Deal(fix.Name, fix.P, fix.Q, 2, 4, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	shared, apart := deal(), deal()
	msgs := [][]byte{[]byte("cell message 0"), []byte("cell message 1"), []byte("cell message 2")}
	var want [][]byte
	for i, msg := range msgs {
		rng := rand.New(rand.NewSource(int64(i)))
		for _, priv := range apart.Shares {
			sh, err := apart.Public.Sign(priv, msg, rng)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, component.EncodeSigShare(&apart.Public, sh))
		}
	}
	const cells = 4
	got := make([][][]byte, cells)
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var bare []*threshsig.SigShare
			for i, msg := range msgs {
				rng := rand.New(rand.NewSource(int64(i)))
				for _, priv := range shared.Shares {
					sh, err := shared.Public.SignBare(priv, msg, rng)
					if err != nil {
						t.Error(err)
						return
					}
					bare = append(bare, sh)
				}
			}
			for _, sh := range bare {
				got[c] = append(got[c], component.EncodeSigShare(&shared.Public, sh))
			}
		}(c)
	}
	wg.Wait()
	for c := range got {
		if len(got[c]) != len(want) {
			t.Fatalf("cell %d made %d shares, want %d", c, len(got[c]), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[c][i], want[i]) {
				t.Fatalf("cell %d, share %d: late proof differs from Sign's", c, i)
			}
		}
	}
}
