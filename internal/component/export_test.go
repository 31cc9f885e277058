package component

// VerifyProof checks a combined PRBC proof of the slot's value with hash h.
func (p *PRBC) VerifyProof(slot int, h Hash8, proof []byte) error {
	_, err := p.dones.check(p.doneMessage(slot, h), proof)
	return err
}
