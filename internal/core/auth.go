package core

import "time"

// SizedAuth is the ideal per-frame signature. A signature is Len
// placeholder bytes, and a frame verifies only as the station that
// transmitted it: its header's sender must be that station. That is what
// a real signature gives on a channel that delivers a transmitter's bytes
// unaltered or not at all, where no node re-sends another's signed frame
// verbatim. The bytes on air and the virtual CPU charges match the real
// scheme's, so the simulated latency is the same.
type SizedAuth struct {
	Len        int
	CostSign   time.Duration
	CostVerify time.Duration

	// sig is the placeholder, built on first use. One SizedAuth serves one
	// simulation, which is single-threaded.
	sig []byte
}

// Sign returns the deterministic placeholder signature: the same bytes
// every time, which callers only read.
func (a *SizedAuth) Sign() []byte {
	if len(a.sig) != a.Len {
		a.sig = make([]byte, a.Len)
		for i := range a.sig {
			a.sig[i] = byte(i) ^ 0x5A
		}
	}
	return a.sig
}

// Verify reports whether a frame that station transmitted, whose header
// claims sender, carries a valid signature.
func (a *SizedAuth) Verify(station, sender uint16, sig []byte) bool {
	return sender == station && len(sig) == a.Len
}
