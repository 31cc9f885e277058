package byz

import "repro/internal/core"

// ForgeCut is the forged-cut attack on the clustered chain's global tier:
// a Byzantine relay seat submits cluster-cut records that claim a cluster
// it does not control with an attacker-chosen digest. The certificate is
// the true cut's — the attacker holds at most f of any other cluster's
// f+1 signing shares, so it cannot produce a valid certificate for the
// forged (cluster, epoch, digest) and the best it can do is replay a
// stale one. The defense is the cut certificate itself
// (internal/run/cutcert.go): every seat verifies the threshold signature
// over the claimed tuple before counting a cut, so forged records are
// rejected at every honest seat and never enter the cross-cluster order.
//
// The forgery is made where cut records are built: the clustered driver
// applies Forge to every cut an armed seat submits. On the wire the node
// is honest, so on a deployment without cuts it forges nothing.
type ForgeCut struct{}

// Name implements Behavior.
func (ForgeCut) Name() string { return NameForgeCut }

// Rewrite implements Behavior: every intent passes through unchanged.
func (ForgeCut) Rewrite(_ Ctx, in core.Intent) []core.Intent { return []core.Intent{in} }

// Forge is the attack's rule: the true cut of cluster with digest is
// claimed for the neighbouring cluster (id low bit flipped) with a
// scrambled digest.
func (ForgeCut) Forge(cluster int, digest [32]byte) (int, [32]byte) {
	for i := range digest {
		digest[i] ^= 0xA5
	}
	return cluster ^ 1, digest
}
