package dlthresh_test

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/component"
	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
)

// TestLateProofMatchesShare: a share made bare and proved later is the
// share Share makes. A dealt party's bare V comes from its use's dealt
// shares, raised together on the use's first ShareBare, and Share's from
// the comb of the use's base, which the proofs build. On the two smallest
// groups, at three reader seeds, in either order — each party's share
// made by Share first, or every party's share made bare and proved before
// Share builds the comb — every party's ShareBare share
//   - has no proof until asked, and its bare encoding is Share's;
//   - leaves the reader where Share leaves it: the next draws are equal;
//   - encodes in full (component.EncodeDLShare, which proves it)
//     byte-for-byte as Share's share from the same reader state;
//   - is proved once: asking again allocates nothing and keeps the proof;
//   - passes VerifyShare.
func TestLateProofMatchesShare(t *testing.T) {
	for _, g := range group.All()[:2] {
		key, err := dlthresh.Deal(g, 2, 4, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		pk := &key.Public
		for seed := int64(1); seed <= 3; seed++ {
			for _, bareFirst := range []bool{false, true} {
				tag := []byte(fmt.Sprintf("%s late proof, seed %d, bare first %v", g.Name, seed, bareFirst))
				use := dlthresh.Base{Tag: tag, Element: func() *big.Int { return g.ExpG(g.HashToScalar("late proof", tag)) }}
				eager, lazy := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				lates := make([]*dlthresh.Share, len(key.Shares))
				if bareFirst {
					for i, priv := range key.Shares {
						if lates[i], err = pk.ShareBare(use, priv, lazy); err != nil {
							t.Fatal(err)
						}
						if lates[i].Proof != nil {
							t.Fatalf("%s, seed %d, party %d: ShareBare made a proof", g.Name, seed, priv.Index)
						}
					}
					for _, late := range lates {
						late.Prove()
					}
				}
				for i, priv := range key.Shares {
					what := fmt.Sprintf("%s, seed %d, bare first %v, party %d", g.Name, seed, bareFirst, priv.Index)
					full, err := pk.Share(use, priv, eager)
					if err != nil {
						t.Fatal(err)
					}
					late := lates[i]
					if !bareFirst {
						if late, err = pk.ShareBare(use, priv, lazy); err != nil {
							t.Fatal(err)
						}
						if late.Proof != nil {
							t.Fatalf("%s: ShareBare made a proof", what)
						}
						if a, b := eager.Int63(), lazy.Int63(); a != b {
							t.Fatalf("%s: readers part after the share: next draws %d and %d", what, a, b)
						}
					}
					if !bytes.Equal(component.EncodeBareDLShare(g, late), component.EncodeBareDLShare(g, full)) {
						t.Fatalf("%s: bare encodings differ", what)
					}
					if got, want := component.EncodeDLShare(g, late), component.EncodeDLShare(g, full); !bytes.Equal(got, want) {
						t.Fatalf("%s: late share encodes as\n %x\nShare's as\n %x", what, got, want)
					}
					proof := late.Proof
					if allocs := testing.AllocsPerRun(10, late.Prove); allocs != 0 || late.Proof != proof {
						t.Fatalf("%s: a second Prove allocated %v times or changed the proof", what, allocs)
					}
					if err := pk.VerifyShare(use, late); err != nil {
						t.Fatalf("%s: VerifyShare: %v", what, err)
					}
				}
				if a, b := eager.Int63(), lazy.Int63(); a != b {
					t.Fatalf("%s, seed %d, bare first %v: readers part after every share: next draws %d and %d", g.Name, seed, bareFirst, a, b)
				}
			}
		}
	}
}
