package core

import (
	"testing"

	"repro/internal/crypto/pksig"
)

// TestIdealSignatureAllSchemes: sized to each scheme, the ideal signature
// is that scheme's width and verifies as the station that transmitted the
// frame, and a frame claiming another sender does not.
func TestIdealSignatureAllSchemes(t *testing.T) {
	for _, s := range pksig.AllSchemes() {
		t.Run(string(s), func(t *testing.T) {
			auth := &SizedAuth{Len: s.SignatureLen()}
			sig := auth.Sign()
			if len(sig) != s.SignatureLen() {
				t.Fatalf("signature %d bytes, want %d", len(sig), s.SignatureLen())
			}
			if !auth.Verify(2, 2, sig) {
				t.Error("frame from its own station refused")
			}
			if auth.Verify(1, 2, sig) {
				t.Error("frame claiming sender 2, transmitted by station 1, verified")
			}
		})
	}
}

// TestIdealSignatureCrossSender: a signature valid for one station does not
// verify a frame another station transmitted under its name, in either
// direction, which is what a real signature refuses under another node's
// key.
func TestIdealSignatureCrossSender(t *testing.T) {
	auth := &SizedAuth{Len: pksig.SchemeECDSAP256.SignatureLen()}
	sig := auth.Sign()
	if !auth.Verify(1, 1, sig) || !auth.Verify(2, 2, sig) {
		t.Fatal("honest frame refused")
	}
	if auth.Verify(1, 2, sig) {
		t.Error("station 1's frame verified as sender 2")
	}
	if auth.Verify(2, 1, sig) {
		t.Error("station 2's frame verified as sender 1")
	}
}

// TestIdealSignatureWrongLength: a truncated, shortened or lengthened
// signature does not verify, even from the right station.
func TestIdealSignatureWrongLength(t *testing.T) {
	auth := &SizedAuth{Len: pksig.SchemeECDSAP256.SignatureLen()}
	sig := auth.Sign()
	if auth.Verify(2, 2, []byte{1, 2, 3}) {
		t.Error("truncated signature verified")
	}
	if auth.Verify(2, 2, sig[:len(sig)-1]) {
		t.Error("signature one byte short verified")
	}
	if auth.Verify(2, 2, append(sig[:len(sig):len(sig)], 0)) {
		t.Error("signature one byte long verified")
	}
}
