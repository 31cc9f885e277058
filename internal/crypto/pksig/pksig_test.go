package pksig

import "testing"

func TestSignatureSizeLadder(t *testing.T) {
	sizes := map[Scheme]int{
		SchemeECDSAP224: 56,
		SchemeECDSAP256: 64,
		SchemeEd25519:   64,
		SchemeECDSAP384: 96,
		SchemeECDSAP521: 132,
	}
	for s, want := range sizes {
		if got := s.SignatureLen(); got != want {
			t.Errorf("%s: SignatureLen = %d, want %d", s, got, want)
		}
	}
}

func TestUnknownScheme(t *testing.T) {
	if Scheme("rot13").SignatureLen() != 0 {
		t.Error("unknown scheme has nonzero signature size")
	}
}
