package component

import (
	"repro/internal/core"
	"repro/internal/crypto/threshenc"
	"repro/internal/packet"
)

// Decryptor runs the threshold-decryption exchange HoneyBadgerBFT and BEAT
// perform after ACS fixes the accepted proposal set: every node broadcasts
// one decryption share per accepted ciphertext, bare; 2f+1 bare shares
// that agree give the ciphertext's key, and its plaintext if the key meets
// the ciphertext's commitment. Bare shares that disagree, or f+1 of them
// that wait too long for the rest (a peer that crashed after it combined
// sends its share no more), turn the slot to proved shares, each
// verified, of which f+1 give the key (decScheme). Either way the key is
// the one every honest node gets: a ciphertext whose commitment it does
// not meet — a Byzantine proposer's, made under another key — is refused
// everywhere, and the slot recovers nil, as a malformed ciphertext does
// at ACS. Shares ride the same batched packets as everything else
// (vertical batching across the accepted slots).
type Decryptor struct {
	env    *Env
	shares collector[*threshenc.Ciphertext, *threshenc.DecShare, []byte]
	slots  []*decSlot // by slot; nil until the slot is first mentioned

	onPlain func(slot int, plaintext []byte)

	done packet.BitSet
}

// decSlot is the plaintext of one accepted ciphertext in the making; it
// opens when the ciphertext is submitted, and peers' shares that arrive
// ahead of it (a peer whose ACS completed first) park in it.
type decSlot struct {
	tally[*threshenc.Ciphertext, *threshenc.DecShare, []byte]
}

// NewDecryptor creates the component and registers it on the transport.
func NewDecryptor(env *Env, slots int, onPlain func(slot int, plaintext []byte)) *Decryptor {
	d := &Decryptor{
		env:     env,
		slots:   make([]*decSlot, slots),
		onPlain: onPlain,
		done:    packet.NewBitSet(slots),
	}
	d.shares = collector[*threshenc.Ciphertext, *threshenc.DecShare, []byte]{scheme: decScheme(env), env: env, combined: d.recovered}
	env.T.Register(packet.KindDec, d)
	return d
}

// slot returns a slot's state, creating it on first mention.
func (d *Decryptor) slot(slot int) *decSlot {
	if d.slots[slot] == nil {
		d.slots[slot] = &decSlot{}
	}
	return d.slots[slot]
}

// shareIntent is where this node's decryption share for slot goes on the air.
func (d *Decryptor) shareIntent(slot int) core.IntentKey {
	return core.IntentKey{Kind: packet.KindDec, Phase: packet.PhaseDecShare, Slot: uint8(slot), Sub: uint8(d.env.Me)}
}

// Submit provides the ciphertext accepted for a slot, releases this
// node's decryption share, and verifies the peers' shares that arrived
// ahead of the ciphertext. The first Submit installs the NACK row (later
// ones find it unchanged): until the subset is fixed this node has no
// ciphertext to use a share on, so its frames ask no peer for one, and a
// peer's transport counts it in no slot's settling.
func (d *Decryptor) Submit(slot int, ct *threshenc.Ciphertext) {
	d.env.T.SetNack(packet.KindDec, packet.PhaseDecShare, d.done)
	if s := d.slot(slot); !s.open {
		d.shares.begin(&s.tally, slot, ct, d.shareIntent(slot))
	}
}

// Plaintext returns the recovered plaintext for a slot, or nil: not yet
// recovered, or refused.
func (d *Decryptor) Plaintext(slot int) []byte {
	if s := d.slots[slot]; s != nil {
		return s.value
	}
	return nil
}

// HandleSection implements core.Handler.
func (d *Decryptor) HandleSection(from uint16, sec packet.Section) {
	if sec.Phase != packet.PhaseDecShare {
		return
	}
	w, ok := d.env.peer(from)
	if !ok {
		return
	}
	for _, e := range sec.Entries {
		if int(e.Slot) >= len(d.slots) {
			continue
		}
		// Until our ACS completes the ciphertext is not known: the share parks.
		d.shares.offer(&d.slot(int(e.Slot)).tally, int(e.Slot), w, e.Flags, e.Data)
	}
}

// recovered runs once a slot's shares combined into its plaintext, or, nil,
// refused its ciphertext.
func (d *Decryptor) recovered(slot int, plain []byte) {
	d.done.Set(slot)
	d.env.T.SetNack(packet.KindDec, packet.PhaseDecShare, d.done)
	// The share intent stays live: the transport parks it once every
	// peer's row shows the slot combined, and a peer that turns up
	// without the done bit again (crash recovery) brings it back.
	if d.onPlain != nil {
		d.onPlain(slot, plain)
	}
}
