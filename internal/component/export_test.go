package component

import "slices"

// markRegressed has the ABA treat peers as ones whose NACK rows showed they
// lost state, as its transport does once a row of theirs loses a bit
// (core.Transport.Regressed): their entries for rounds it has pruned are
// then answered with a replay (reserveRound).
func (a *CachinABA) markRegressed(peers ...int) {
	a.regressed = func(w int) bool { return slices.Contains(peers, w) }
}

// VerifyProof checks a combined PRBC proof of the slot's value with hash h.
func (p *PRBC) VerifyProof(slot int, h Hash8, proof []byte) error {
	_, err := p.dones.check(p.doneMessage(slot, h), proof)
	return err
}
