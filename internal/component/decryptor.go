package component

import (
	"repro/internal/crypto/threshenc"
	"repro/internal/packet"
)

// Decryptor runs the threshold-decryption exchange HoneyBadgerBFT and BEAT
// perform after ACS fixes the accepted proposal set: every node broadcasts
// one decryption share per accepted ciphertext, bare; 2f+1 bare shares
// that agree give the ciphertext's key, and its plaintext if the key meets
// the ciphertext's commitment. Bare shares that disagree, or f+1 of them
// that wait too long for the rest (a peer may crash and stay down), turn
// the slot to proved shares, each
// verified, of which f+1 give the key (decScheme). Either way the key is
// the one every honest node gets: a ciphertext whose commitment it does
// not meet — a Byzantine proposer's, made under another key — is refused
// everywhere, and the slot recovers nil, as a malformed ciphertext does
// at ACS. Shares ride the same batched packets as everything else
// (vertical batching across the accepted slots): KindDec/PhaseDecShare
// entries, one slot per accepted ciphertext.
type Decryptor struct {
	shareSlots[*threshenc.Ciphertext, *threshenc.DecShare, []byte]
}

// NewDecryptor creates the component and registers it on the transport.
func NewDecryptor(env *Env, slots int, onPlain func(slot int, plaintext []byte)) *Decryptor {
	d := &Decryptor{}
	d.init(env, decScheme(env), packet.KindDec, packet.PhaseDecShare, slots, onPlain)
	env.T.Register(packet.KindDec, d)
	return d
}

// Submit provides the ciphertext accepted for a slot, releases this
// node's decryption share, and takes up the peers' shares that arrived
// ahead of the ciphertext (a peer whose ACS completed first). The first
// Submit installs the NACK row.
func (d *Decryptor) Submit(slot int, ct *threshenc.Ciphertext) { d.begin(slot, ct) }

// Plaintext returns the recovered plaintext for a slot, or nil: not yet
// recovered, or refused.
func (d *Decryptor) Plaintext(slot int) []byte { return d.value(slot) }
