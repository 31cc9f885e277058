package run

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/crypto"
	"repro/internal/crypto/threshsig"
)

// certSuites deals a 4-member cluster's suites (threshold f+1 = 2 on
// TSLow) for certificate tests; distinct seeds give distinct cluster
// keys, as in the clustered driver.
func certSuites(t *testing.T, seed int64) []*crypto.Suite {
	t.Helper()
	suites, err := crypto.DealCached(4, 1, crypto.LightConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return suites
}

// signCut produces a valid cut certificate: f+1 member shares over the
// domain-separated cut message, combined under the cluster key.
func signCut(t *testing.T, suites []*crypto.Suite, session uint32, cluster, epoch int, digest [32]byte) []byte {
	t.Helper()
	key := suites[0].TSLow
	msg := cutMsg(session, cluster, epoch, digest)
	var shares []*threshsig.SigShare
	for i := 0; i < key.K; i++ {
		sh, err := key.Sign(suites[i].TSLowShare, msg, zeroReader{})
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	cert, err := certifyCut(key, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// certifyCut combines f+1 shares into a cut certificate the way the
// members' share collector does, and pads it the way the relay does.
func certifyCut(key *threshsig.PublicKey, msg []byte, shares []*threshsig.SigShare) ([]byte, error) {
	sig, err := key.Combine(msg, shares)
	if err != nil {
		return nil, err
	}
	return padCert(key, sig.Bytes()), nil
}

// zeroReader stands in for the node RNG (the Chaum–Pedersen proof nonce);
// determinism is irrelevant to these tests.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x5a
	}
	return len(p), nil
}

func TestCutCertRoundTrip(t *testing.T) {
	suites := certSuites(t, 11)
	digest := [32]byte{1, 2, 3}
	cert := signCut(t, suites, 7, 2, 5, digest)
	if len(cert) != suites[0].TSLow.SignatureLen() {
		t.Fatalf("certificate is %d bytes, want the fixed width %d", len(cert), suites[0].TSLow.SignatureLen())
	}
	tx := MakeCutTx(2, 5, digest, cert)
	c, e, dig, gotCert, ok := parseCutTx(tx)
	if !ok || c != 2 || e != 5 || dig != digest || !bytes.Equal(gotCert, cert) {
		t.Fatalf("round trip broke: ok=%v c=%d e=%d", ok, c, e)
	}
	if !verifyCutCert(suites[0].TSLow, 7, 2, 5, digest, cert) {
		t.Fatal("valid certificate rejected")
	}
}

// TestCutCertBadShare: a tampered share fails share verification, and
// combining with it cannot yield a certificate that verifies (Combine
// re-checks the result against the public key).
func TestCutCertBadShare(t *testing.T) {
	suites := certSuites(t, 11)
	key := suites[0].TSLow
	digest := [32]byte{9}
	msg := cutMsg(1, 0, 0, digest)
	good, err := key.Sign(suites[0].TSLowShare, msg, zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &threshsig.SigShare{
		Index: good.Index,
		X:     new(big.Int).Add(good.X, big.NewInt(1)),
		C:     good.C,
		Z:     good.Z,
	}
	if key.VerifyShare(msg, bad) == nil {
		t.Fatal("tampered share passed share verification")
	}
	second, err := key.Sign(suites[1].TSLowShare, msg, zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	if cert, err := certifyCut(key, msg, []*threshsig.SigShare{bad, second}); err == nil {
		if verifyCutCert(key, 1, 0, 0, digest, cert) {
			t.Fatal("certificate combined from a tampered share verified")
		}
	}
}

// TestCutCertWrongEpochReplay: a certificate is bound to its epoch (and
// digest); replaying it for any other (epoch, digest, session) fails.
func TestCutCertWrongEpochReplay(t *testing.T) {
	suites := certSuites(t, 11)
	key := suites[0].TSLow
	digest := [32]byte{4, 4}
	cert := signCut(t, suites, 7, 1, 3, digest)
	if !verifyCutCert(key, 7, 1, 3, digest, cert) {
		t.Fatal("valid certificate rejected")
	}
	if verifyCutCert(key, 7, 1, 4, digest, cert) {
		t.Fatal("certificate replayed for a different epoch verified")
	}
	other := [32]byte{4, 5}
	if verifyCutCert(key, 7, 1, 3, other, cert) {
		t.Fatal("certificate replayed for a different digest verified")
	}
	if verifyCutCert(key, 8, 1, 3, digest, cert) {
		t.Fatal("certificate replayed under a different session verified")
	}
}

// TestCutCertCrossClusterReuse: a certificate dealt by one cluster's key
// neither verifies under another cluster's key nor for another cluster id
// under its own key — a Byzantine seat cannot graft its own cluster's
// certificate onto a forged cut.
func TestCutCertCrossClusterReuse(t *testing.T) {
	a := certSuites(t, 11)
	b := certSuites(t, 12)
	digest := [32]byte{8, 8}
	cert := signCut(t, a, 7, 0, 2, digest)
	if verifyCutCert(b[0].TSLow, 7, 0, 2, digest, cert) {
		t.Fatal("cluster A's certificate verified under cluster B's key")
	}
	if verifyCutCert(a[0].TSLow, 7, 1, 2, digest, cert) {
		t.Fatal("certificate verified for a cluster id it was not signed over")
	}
}

// TestCutCertTruncatedWire: records at or below the bare header are not
// cuts (an unsigned cut is not a cut), and a truncated or padded
// certificate fails the fixed-width check before any RSA math runs.
func TestCutCertTruncatedWire(t *testing.T) {
	suites := certSuites(t, 11)
	key := suites[0].TSLow
	digest := [32]byte{3}
	cert := signCut(t, suites, 7, 1, 0, digest)
	full := MakeCutTx(1, 0, digest, cert)
	for cut := len(full) - 1; cut >= cutHeaderSize; cut-- {
		c, e, dig, short, ok := parseCutTx(full[:cut])
		if cut == cutHeaderSize {
			if ok {
				t.Fatal("bare 40-byte header parsed as a cut")
			}
			continue
		}
		if !ok {
			t.Fatalf("header+partial-cert record of %d bytes failed to parse", cut)
		}
		if verifyCutCert(key, 7, c, e, dig, short) {
			t.Fatalf("truncated certificate (%d bytes) verified", len(short))
		}
	}
	for _, tx := range [][]byte{nil, {}, full[:8], full[:39]} {
		if _, _, _, _, ok := parseCutTx(tx); ok {
			t.Fatalf("truncated record of %d bytes parsed as a cut", len(tx))
		}
	}
	padded := append(append([]byte(nil), full...), 0)
	if c, e, dig, cert2, ok := parseCutTx(padded); ok {
		if verifyCutCert(key, 7, c, e, dig, cert2) {
			t.Fatal("padded certificate verified")
		}
	}
}
