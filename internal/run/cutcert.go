package run

import (
	"encoding/binary"
	"math/big"

	"repro/internal/crypto/threshsig"
)

// Cut certificates: the threshold-signed provenance proof that travels
// with every cluster-cut record to the global tier (the VCBC-style
// "proof travels with the value" discipline). A cut is signed by f+1 of
// its cluster's members under the cluster's low-threshold signature key
// (crypto.Suite.TSLow, dealt per cluster through crypto.DealCached; the
// members collect the shares on their own channel in component.CutCert,
// a one-slot instance of the tally behind PRBC's DONE proofs), so
// a Byzantine relay seat — which holds at most f cluster shares worth of
// influence — cannot fabricate a certificate for a cluster it does not
// control. Every relay seat verifies the certificate of every cut it
// commits; cuts that fail are counted into core.Stats.Rejected and never
// enter the cut order or the frontier beacons.

// cutHeaderSize is the fixed prefix of a cluster-cut record:
// u32 cluster | u32 local epoch | 32-byte entry digest. The threshold
// certificate follows (SignatureLen bytes of the cluster's TSLow key).
const cutHeaderSize = 40

// cutMsg is the domain-separated message a cluster threshold-signs for
// one cut: it binds the deployment's global session, the cluster id, the
// local epoch, and the committed entry digest, so a certificate cannot
// be replayed for another epoch, grafted onto another cluster's cut, or
// reused across deployments.
func cutMsg(session uint32, cluster, epoch int, digest [32]byte) []byte {
	msg := make([]byte, 0, 11+12+32)
	msg = append(msg, "mhchain-cut"...)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], session)
	msg = append(msg, b[:]...)
	binary.BigEndian.PutUint32(b[:], uint32(cluster))
	msg = append(msg, b[:]...)
	binary.BigEndian.PutUint32(b[:], uint32(epoch))
	msg = append(msg, b[:]...)
	msg = append(msg, digest[:]...)
	return msg
}

// MakeCutTx builds the certified cluster-cut record a relay seat submits
// to the global tier for one committed local epoch.
func MakeCutTx(cluster, epoch int, digest [32]byte, cert []byte) []byte {
	tx := make([]byte, cutHeaderSize+len(cert))
	binary.BigEndian.PutUint32(tx, uint32(cluster))
	binary.BigEndian.PutUint32(tx[4:], uint32(epoch))
	copy(tx[8:], digest[:])
	copy(tx[cutHeaderSize:], cert)
	return tx
}

// parseCutTx decodes a cut record; ok is false for foreign payloads and
// for records truncated to (or below) the bare header — an unsigned cut
// is not a cut.
func parseCutTx(tx []byte) (cluster, epoch int, digest [32]byte, cert []byte, ok bool) {
	if len(tx) <= cutHeaderSize {
		return 0, 0, digest, nil, false
	}
	cluster = int(binary.BigEndian.Uint32(tx))
	epoch = int(binary.BigEndian.Uint32(tx[4:]))
	copy(digest[:], tx[8:])
	return cluster, epoch, digest, tx[cutHeaderSize:], true
}

// padCert widens a combined signature's minimal big-endian bytes to the
// fixed-width certificate encoding (SignatureLen bytes, left-padded).
func padCert(key *threshsig.PublicKey, sig []byte) []byte {
	cert := make([]byte, key.SignatureLen())
	copy(cert[len(cert)-len(sig):], sig)
	return cert
}

// verifyCutCert checks a cut's certificate against the claimed cluster's
// threshold key. Certificates of the wrong width are rejected outright
// (truncation cannot smuggle a shorter forgery past the RSA check).
func verifyCutCert(key *threshsig.PublicKey, session uint32, cluster, epoch int, digest [32]byte, cert []byte) bool {
	if len(cert) != key.SignatureLen() {
		return false
	}
	sig := &threshsig.Signature{S: new(big.Int).SetBytes(cert)}
	return key.Verify(cutMsg(session, cluster, epoch, digest), sig) == nil
}

// CutCertStats counts the seats' side of one Clustered × Chain run's cut
// certificates, summed over all seats. The members' signing, share
// checks and combining run in the share collector on the cluster
// channel and are charged there, like every other threshold share.
type CutCertStats struct {
	// Verifies counts certificate checks (one TSVerify each on the seat's
	// CPU) of committed cut records.
	Verifies int `json:"verifies"`
	// RejectedCuts counts committed global-order transactions discarded
	// by certificate verification (forged, unsigned, malformed, or
	// out-of-range cuts), summed over all seats. Each discard is also
	// counted into the seat transport's Stats.Rejected.
	RejectedCuts int `json:"rejected_cuts"`
}
