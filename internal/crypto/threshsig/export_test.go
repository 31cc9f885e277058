package threshsig

import "crypto/sha256"

// MemoizedVerdict returns the key's remembered verdict on sh as a share of
// msg, if it has one.
func (pk *PublicKey) MemoizedVerdict(msg []byte, sh *SigShare) (err error, hit bool) {
	return pk.cc.verified.Peek(shareKey(sha256.Sum256(msg), sh))
}
