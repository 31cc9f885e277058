package core

import (
	"fmt"
	"time"

	"repro/internal/crypto/pksig"
)

// RealAuth signs and verifies frames with actual public-key cryptography
// (per-node keys from the suite dealer). Byzantine-fault tests use it to
// show forged or tampered frames are dropped; large honest-only sweeps use
// SizedAuth instead, which has identical virtual-time and byte-size
// behaviour.
type RealAuth struct {
	Signer     *pksig.PrivateKey
	Peers      []pksig.PublicKey // by node id
	CostSign   time.Duration
	CostVerify time.Duration
}

var _ Auth = (*RealAuth)(nil)

// Sign implements Auth.
func (a *RealAuth) Sign(body []byte) ([]byte, error) { return a.Signer.Sign(body) }

// Verify implements Auth.
func (a *RealAuth) Verify(sender uint16, body, sig []byte) error {
	if int(sender) >= len(a.Peers) {
		return fmt.Errorf("core: unknown sender %d", sender)
	}
	return a.Peers[sender].Verify(body, sig)
}

// SignCost implements Auth.
func (a *RealAuth) SignCost() time.Duration { return a.CostSign }

// VerifyCost implements Auth.
func (a *RealAuth) VerifyCost() time.Duration { return a.CostVerify }
