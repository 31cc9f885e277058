package core

import (
	"errors"
	"time"
)

// SizedAuth is an Auth that produces placeholder signatures of the right
// length and always verifies, while still charging the configured virtual
// compute cost. Honest-only parameter sweeps use it to keep wall-clock time
// reasonable: the simulated latency (what the experiments measure) is
// unchanged because both the bytes on air and the virtual CPU charges match
// the real scheme. Byzantine-fault tests use node.RealAuth instead.
type SizedAuth struct {
	Len        int
	CostSign   time.Duration
	CostVerify time.Duration

	// sig is the placeholder, built on first use. One SizedAuth serves one
	// simulation, which is single-threaded.
	sig []byte
}

var _ Auth = (*SizedAuth)(nil)

// Sign returns the deterministic placeholder signature: the same bytes
// every time, which callers only read.
func (a *SizedAuth) Sign(body []byte) ([]byte, error) {
	if len(a.sig) != a.Len {
		a.sig = make([]byte, a.Len)
		for i := range a.sig {
			a.sig[i] = byte(i) ^ 0x5A
		}
	}
	return a.sig, nil
}

// Verify accepts any signature of the right length.
func (a *SizedAuth) Verify(_ uint16, _, sig []byte) error {
	if len(sig) != a.Len {
		return errors.New("core: placeholder signature length mismatch")
	}
	return nil
}

// SignCost implements Auth.
func (a *SizedAuth) SignCost() time.Duration { return a.CostSign }

// VerifyCost implements Auth.
func (a *SizedAuth) VerifyCost() time.Duration { return a.CostVerify }
