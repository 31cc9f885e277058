package run

import (
	"bytes"
	"testing"

	"repro/internal/crypto"
	"repro/internal/crypto/threshsig"
)

// FuzzParseCutTx: parseCutTx must accept exactly the records MakeCutTx
// builds — any parsed record re-encodes to the identical bytes, and
// nothing at or below the bare header parses.
func FuzzParseCutTx(f *testing.F) {
	var digest [32]byte
	for i := range digest {
		digest[i] = byte(i)
	}
	f.Add(MakeCutTx(3, 7, digest, bytes.Repeat([]byte{0xAB}, 64)))
	f.Add(MakeCutTx(0, 0, [32]byte{}, []byte{1}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, cutHeaderSize))
	f.Fuzz(func(t *testing.T, tx []byte) {
		c, e, dig, cert, ok := parseCutTx(tx)
		if !ok {
			if len(tx) > cutHeaderSize {
				t.Fatalf("header+cert record of %d bytes failed to parse", len(tx))
			}
			return
		}
		if c < 0 || e < 0 || len(cert) == 0 {
			t.Fatalf("parsed cut has c=%d e=%d certlen=%d", c, e, len(cert))
		}
		if !bytes.Equal(MakeCutTx(c, e, dig, cert), tx) {
			t.Fatal("parse/encode round trip diverged")
		}
	})
}

// FuzzCutCertDecode: certificate decoding and verification must never
// panic, and no mutation of a valid certified cut — tuple or certificate
// bytes — may verify. Only the exact record the cluster threshold-signed
// does.
func FuzzCutCertDecode(f *testing.F) {
	suites, err := crypto.DealCached(4, 1, crypto.LightConfig(), 11)
	if err != nil {
		f.Fatal(err)
	}
	key := suites[0].TSLow
	const session = 7
	digest := [32]byte{1, 2, 3}
	msg := cutMsg(session, 2, 5, digest)
	sh0, err := key.Sign(suites[0].TSLowShare, msg, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	sh1, err := key.Sign(suites[1].TSLowShare, msg, zeroReader{})
	if err != nil {
		f.Fatal(err)
	}
	cert, err := certifyCut(key, msg, []*threshsig.SigShare{sh0, sh1})
	if err != nil {
		f.Fatal(err)
	}
	valid := MakeCutTx(2, 5, digest, cert)
	f.Add(valid)
	f.Add(append([]byte(nil), valid[:50]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tx []byte) {
		c, e, dig, crt, ok := parseCutTx(tx)
		if !ok {
			return
		}
		if verifyCutCert(key, session, c, e, dig, crt) && !bytes.Equal(tx, valid) {
			t.Fatalf("forged record of %d bytes verified", len(tx))
		}
	})
}
