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
// share Share makes. On the two smallest groups, at three reader seeds,
// every party's ShareBare share
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
			tag := []byte(fmt.Sprintf("%s late proof, seed %d", g.Name, seed))
			use := dlthresh.Base{Tag: tag, Element: func() *big.Int { return g.ExpG(g.HashToScalar("late proof", tag)) }}
			eager, lazy := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for _, priv := range key.Shares {
				what := fmt.Sprintf("%s, seed %d, party %d", g.Name, seed, priv.Index)
				full, err := pk.Share(use, priv, eager)
				if err != nil {
					t.Fatal(err)
				}
				late, err := pk.ShareBare(use, priv, lazy)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := eager.Int63(), lazy.Int63(); a != b {
					t.Fatalf("%s: readers part after the share: next draws %d and %d", what, a, b)
				}
				if late.Proof != nil {
					t.Fatalf("%s: ShareBare made a proof", what)
				}
				if !bytes.Equal(component.EncodeBareDLShare(late), component.EncodeBareDLShare(full)) {
					t.Fatalf("%s: bare encodings differ", what)
				}
				if got, want := component.EncodeDLShare(late), component.EncodeDLShare(full); !bytes.Equal(got, want) {
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
		}
	}
}
