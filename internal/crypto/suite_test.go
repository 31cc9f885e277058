package crypto

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/crypto/threshsig"
)

func TestDealSuites(t *testing.T) {
	suites, err := Deal(4, 1, LightConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 4 {
		t.Fatalf("got %d suites", len(suites))
	}
	for i, s := range suites {
		if s.Index != i+1 {
			t.Errorf("suite %d has index %d", i, s.Index)
		}
		if s.TSLow.K != 2 { // f+1
			t.Errorf("TSLow threshold = %d, want 2", s.TSLow.K)
		}
		if s.TSHigh.K != 3 { // 2f+1
			t.Errorf("TSHigh threshold = %d, want 3", s.TSHigh.K)
		}
		if s.TC.K != 2 || s.TE.K != 2 {
			t.Errorf("coin/enc thresholds = %d/%d, want 2/2", s.TC.K, s.TE.K)
		}
		if s.SigLen != 56 { // ECDSA P-224
			t.Errorf("suite %d: SigLen = %d, want 56", i, s.SigLen)
		}
	}
}

func TestDealRejectsBadSizes(t *testing.T) {
	if _, err := Deal(5, 1, LightConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("n != 3f+1 accepted")
	}
}

func TestDealThresholdInterop(t *testing.T) {
	suites, err := Deal(4, 1, LightConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	msg := []byte("prbc:2")
	// f+1 = 2 shares from different suites combine under the shared public key.
	sh0, err := suites[0].TSLow.Sign(suites[0].TSLowShare, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := suites[2].TSLow.Sign(suites[2].TSLowShare, msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := suites[1].TSLow.Combine(msg, []*threshsig.SigShare{sh0, sh2})
	if err != nil {
		t.Fatal(err)
	}
	if err := suites[3].TSLow.Verify(msg, sig); err != nil {
		t.Errorf("combined signature rejected across suites: %v", err)
	}
}

func TestCostModelMonotone(t *testing.T) {
	var prev time.Duration
	for _, row := range ParamSetNames() {
		c := CostFor(row.Ours)
		if c.TSSign <= prev {
			t.Errorf("%s: TSSign %v not increasing", row.Ours, c.TSSign)
		}
		prev = c.TSSign
		if c.TCShare >= c.TSSign {
			t.Errorf("%s: coin share %v not cheaper than threshold sign %v", row.Ours, c.TCShare, c.TSSign)
		}
	}
	// Unknown set falls back to base.
	if CostFor("junk") != CostFor("TS-512") {
		t.Error("fallback cost model mismatch")
	}
}

func TestSignatureSizesReport(t *testing.T) {
	pk, thr := SignatureSizes()
	if len(pk) != 5 || len(thr) != 6 {
		t.Fatalf("got %d pk / %d threshold rows, want 5/6", len(pk), len(thr))
	}
	for i := 1; i < len(thr); i++ {
		if thr[i].Size <= thr[i-1].Size {
			t.Errorf("threshold sizes not ascending at %s", thr[i].Name)
		}
	}
}
