package component

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestRBCEquivocatingLeader has the leader broadcast two different
// proposals for the same slot (the strongest equivocation a broadcast
// channel admits: conflicting frames at different times). Honest nodes
// must never deliver conflicting values.
func TestRBCEquivocatingLeader(t *testing.T) {
	tn := newTestNet(t, 21, 0, true)
	rbcs := make([]*RBC, 4)
	for i, env := range tn.envs {
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
	}
	// Leader 0 equivocates: proposes A, then immediately overwrites its
	// INITIAL intent with B (so different receivers may assemble either).
	rbcs[0].Propose(0, []byte("value-A"))
	tn.envs[0].T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial, Slot: 0},
		Flags:     1,
		Data:      []byte("value-B"),
	})
	// Honest proposers for the other slots.
	for i := 1; i < 4; i++ {
		rbcs[i].Propose(i, []byte{byte(i)})
	}
	tn.run(t, 30*time.Minute, func() bool {
		// Wait for the honest slots everywhere; slot 0 may or may not
		// deliver depending on which value wins the quorum.
		for i := 0; i < 4; i++ {
			for s := 1; s < 4; s++ {
				if !rbcs[i].Delivered(s) {
					return false
				}
			}
		}
		return true
	})
	// Agreement on slot 0: any two nodes that delivered must agree.
	var ref []byte
	for i := 0; i < 4; i++ {
		if !rbcs[i].Delivered(0) {
			continue
		}
		v := rbcs[i].Value(0)
		if ref == nil {
			ref = v
			continue
		}
		if !bytes.Equal(ref, v) {
			t.Fatalf("equivocation broke agreement: %q vs %q", ref, v)
		}
	}
}

// byzantineShareInjector corrupts PRBC DONE shares from node 3.
func TestPRBCByzantineShareRejected(t *testing.T) {
	tn := newTestNet(t, 22, 0, true)
	prbcs := make([]*PRBC, 4)
	for i, env := range tn.envs {
		prbcs[i] = NewPRBC(env, PRBCOptions{Slots: 4})
	}
	for i := range tn.envs {
		prbcs[i].Propose(i, []byte(fmt.Sprintf("p-%d", i)))
	}
	// Node 3 additionally injects garbage DONE shares for every slot under
	// its own sub id — they must be discarded (their index names no node),
	// and proofs must still form from the honest shares.
	for s := 0; s < 4; s++ {
		tn.envs[3].T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Slot: uint8(s), Sub: 3},
			Data:      bytes.Repeat([]byte{0xFF}, 90),
		})
	}
	tn.run(t, 30*time.Minute, func() bool {
		for i := 0; i < 3; i++ { // honest nodes
			if prbcs[i].dones.done.Count() < 4 {
				return false
			}
		}
		return true
	})
	for slot := 0; slot < 4; slot++ {
		h := HashValue(prbcs[0].RBC().Value(slot))
		if err := prbcs[0].VerifyProof(slot, h, prbcs[0].Proof(slot)); err != nil {
			t.Errorf("slot %d proof invalid despite honest quorum: %v", slot, err)
		}
	}
}

// TestCachinABAByzantineCoinShares injects garbage coin shares; agreement
// and termination must be unaffected. The shares of rounds 1 and 2, whose
// coins are fixed, are dropped unread; round 3's is rejected too, its
// first byte naming another node than its sender: every honest node
// rejects more entries than the fixed-round ones it heard.
func TestCachinABAByzantineCoinShares(t *testing.T) {
	tn := newTestNet(t, 23, 0, true)
	abas := make([]*sigABA, 4)
	for i, env := range tn.envs {
		env := env
		abas[i] = NewCachinABA(env, SigCoin(env), CachinOptions{
			Slots:      2,
			SharedCoin: true,
		})
	}
	// Count the fixed-round share entries each node hears on the way in.
	fixedHeard := make([]uint64, 4)
	for i, env := range tn.envs {
		i, a := i, abas[i]
		env.T.Register(packet.KindABA, core.HandlerFunc(func(from uint16, sec packet.Section) {
			for _, e := range sec.Entries {
				if _, fixed := fixedCoin(e.Round); fixed && sec.Phase == packet.PhaseShare {
					fixedHeard[i]++
				}
			}
			a.HandleSection(from, sec)
		}))
	}
	// Node 3 spams forged coin shares for rounds 1..3.
	for r := uint16(1); r <= 3; r++ {
		tn.envs[3].T.Update(core.Intent{
			IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseShare, Slot: 0xFF, Sub: 3, Round: r},
			Data:      bytes.Repeat([]byte{0xAB}, 100),
		})
	}
	for i := range tn.envs {
		abas[i].Input(0, i%2 == 0)
		abas[i].Input(1, true)
	}
	tn.run(t, 60*time.Minute, func() bool {
		for _, a := range abas {
			if a.DecidedCount() < 2 {
				return false
			}
		}
		return true
	})
	for slot := 0; slot < 2; slot++ {
		want := *abas[0].Decided(slot)
		for i := 1; i < 4; i++ {
			if *abas[i].Decided(slot) != want {
				t.Fatalf("agreement violated on slot %d with Byzantine coin shares", slot)
			}
		}
	}
	if v := abas[0].Decided(1); v == nil || !*v {
		t.Error("unanimous-1 instance decided 0 (validity)")
	}
	for i := 0; i < 3; i++ {
		if rejected := tn.envs[i].T.Stats().Rejected; rejected <= fixedHeard[i] {
			t.Errorf("node %d rejected %d entries and heard %d fixed-round shares: the round-3 forgery was never rejected", i, rejected, fixedHeard[i])
		}
	}
}

// TestDecodeCiphertextChecksTag hands the decoder what an equivocating
// proposer's mixed fragments reassemble to: a ciphertext whose header — C1,
// tag, body length — is intact and whose body is not the one the tag binds.
// No node will make a decryption share of it, so it must be refused at
// decode, where ACS rejects the slot, and not handed to the Decryptor,
// where the epoch would wait on a plaintext for ever.
func TestDecodeCiphertextChecksTag(t *testing.T) {
	tn := newTestNet(t, 25, 0, true)
	ct, err := tn.envs[0].Suite.TE.Encrypt([]byte("a proposal worth censoring"), tn.envs[0].Rand)
	if err != nil {
		t.Fatal(err)
	}
	raw := EncodeCiphertext(tn.envs[0].Suite.TE.Group, ct)
	if _, err := DecodeCiphertext(raw); err != nil {
		t.Fatalf("genuine ciphertext refused: %v", err)
	}
	raw[len(raw)-1] ^= 0xA5
	got, err := DecodeCiphertext(raw)
	if err == nil {
		t.Fatalf("ciphertext with a rewritten body decoded: C1 %v, %d B body", got.C1, len(got.Body))
	}
}
