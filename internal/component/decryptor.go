package component

import (
	"repro/internal/core"
	"repro/internal/crypto/threshenc"
	"repro/internal/packet"
)

// Decryptor runs the threshold-decryption exchange HoneyBadgerBFT and BEAT
// perform after ACS fixes the accepted proposal set: every node broadcasts
// one decryption share per accepted ciphertext; f+1 verified shares
// recover each plaintext. Shares ride the same batched packets as
// everything else (vertical batching across the accepted slots).
type Decryptor struct {
	env   *Env
	slots map[int]*decSlot

	onPlain func(slot int, plaintext []byte)

	done packet.BitSet
}

type decSlot struct {
	ct        *threshenc.Ciphertext
	shares    map[int]*threshenc.DecShare
	pending   map[int][]byte
	combining bool
	plain     []byte
	peersDone packet.BitSet
}

// NewDecryptor creates the component and registers it on the transport.
func NewDecryptor(env *Env, slots int, onPlain func(slot int, plaintext []byte)) *Decryptor {
	d := &Decryptor{
		env:     env,
		slots:   make(map[int]*decSlot),
		onPlain: onPlain,
		done:    packet.NewBitSet(slots),
	}
	env.T.Register(packet.KindDec, d)
	return d
}

// Submit provides the ciphertext accepted for a slot, releases this
// node's decryption share, and verifies the peers' shares that arrived
// ahead of the ciphertext (a peer whose ACS completed first).
func (d *Decryptor) Submit(slot int, ct *threshenc.Ciphertext) {
	s, ok := d.slots[slot]
	if !ok {
		s = &decSlot{shares: make(map[int]*threshenc.DecShare)}
		d.slots[slot] = s
	} else if s.ct != nil {
		return
	}
	s.ct = ct
	env := d.env
	env.Exec(env.Suite.Cost.TEDecShare, func() {
		share, err := env.Suite.TE.DecryptShare(env.Suite.TEShare, ct, env.Rand)
		if err != nil {
			return // malformed ciphertext: nothing to contribute
		}
		env.T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: packet.KindDec, Phase: packet.PhaseDecShare, Slot: uint8(slot), Sub: uint8(env.Me)},
			Data:      EncodeDecShare(share),
		})
		d.applyShare(slot, env.Me, share)
	})
	// Parked shares drain in node order: map order must not leak into
	// event scheduling.
	for w := 0; w < env.N; w++ {
		if raw, ok := s.pending[w]; ok {
			d.handleShareData(slot, w, raw)
		}
	}
	s.pending = nil // nothing parks once the ciphertext is known
}

// Plaintext returns the recovered plaintext for a slot, or nil.
func (d *Decryptor) Plaintext(slot int) []byte {
	if s, ok := d.slots[slot]; ok {
		return s.plain
	}
	return nil
}

// HandleSection implements core.Handler.
func (d *Decryptor) HandleSection(from uint16, sec packet.Section) {
	if sec.Phase != packet.PhaseDecShare {
		return
	}
	w := int(from)
	// Prune our share intents only when every peer confirms completion —
	// and re-announce them when a peer that had confirmed turns up without
	// the done bit again: it lost its state (crash recovery) and needs the
	// f+1 shares back on the air. Iterate in slot order: map order must not
	// leak into scheduling.
	for slot := 0; slot < len(d.done)*8; slot++ {
		s, ok := d.slots[slot]
		if !ok {
			continue
		}
		if !sec.Nack.Get(slot) {
			if s.peersDone != nil && s.peersDone.Get(w) {
				wasPruned := s.peersDone.Count() >= d.env.N-1
				s.peersDone.Clear(w)
				if wasPruned {
					if share, ok := s.shares[d.env.Me]; ok {
						d.env.T.Update(core.Intent{
							IntentKey: core.IntentKey{Kind: packet.KindDec, Phase: packet.PhaseDecShare, Slot: uint8(slot), Sub: uint8(d.env.Me)},
							Data:      EncodeDecShare(share),
						})
					}
				}
			}
			continue
		}
		if s.peersDone == nil {
			s.peersDone = packet.NewBitSet(d.env.N)
		}
		s.peersDone.Set(w)
		if s.peersDone.Count() >= d.env.N-1 {
			d.env.T.Remove(core.IntentKey{Kind: packet.KindDec, Phase: packet.PhaseDecShare, Slot: uint8(slot), Sub: uint8(d.env.Me)})
		}
	}
	for _, e := range sec.Entries {
		slot := int(e.Slot)
		s, ok := d.slots[slot]
		if !ok {
			// Ciphertext not known yet (our ACS is still completing); park.
			d.slots[slot] = &decSlot{
				shares:  make(map[int]*threshenc.DecShare),
				pending: map[int][]byte{w: append([]byte(nil), e.Data...)},
			}
			continue
		}
		if s.ct == nil {
			if _, dup := s.pending[w]; !dup {
				s.pending[w] = append([]byte(nil), e.Data...)
			}
			continue
		}
		d.handleShareData(slot, w, e.Data)
	}
}

func (d *Decryptor) handleShareData(slot, w int, raw []byte) {
	s := d.slots[slot]
	if _, dup := s.shares[w]; dup || s.plain != nil {
		return
	}
	share, err := DecodeDecShare(raw)
	if err != nil {
		d.env.Reject()
		return
	}
	env := d.env
	env.Exec(env.Suite.Cost.TEVerifyShare, func() {
		if _, dup := s.shares[w]; dup || s.plain != nil {
			return
		}
		if err := env.Suite.TE.VerifyShare(s.ct, share); err != nil {
			env.Reject() // Byzantine share
			return
		}
		d.applyShare(slot, w, share)
	})
}

func (d *Decryptor) applyShare(slot, w int, share *threshenc.DecShare) {
	s := d.slots[slot]
	if _, dup := s.shares[w]; dup || s.plain != nil {
		return
	}
	s.shares[w] = share
	if len(s.shares) < d.env.Weak() || s.combining {
		return
	}
	s.combining = true
	shares := make([]*threshenc.DecShare, 0, len(s.shares))
	for _, sh := range s.shares {
		shares = append(shares, sh)
	}
	env := d.env
	env.Exec(env.Suite.Cost.TECombine, func() {
		plain, err := env.Suite.TE.Combine(s.ct, shares)
		if err != nil {
			s.combining = false
			s.shares = make(map[int]*threshenc.DecShare)
			return
		}
		s.plain = plain
		if slot < len(d.done)*8 {
			d.done.Set(slot)
			env.T.SetNack(packet.KindDec, packet.PhaseDecShare, d.done)
		}
		// The share intent stays live until peersDone confirms everyone
		// combined (see HandleSection).
		if d.onPlain != nil {
			d.onPlain(slot, plain)
		}
	})
}
