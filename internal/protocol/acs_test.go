package protocol

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/component"
)

// TestACSRejectsSemivalidCiphertext runs one encrypted epoch in which an
// accepted slot holds a ciphertext that parses and fails its binding tag —
// what an equivocating proposer's mixed fragments reassemble to. No node
// can make a decryption share of it, so the epoch must not wait for its
// plaintext: every node finishes with that slot empty, having counted one
// rejected contribution. Node 2 proposes nothing, so the three slots that
// deliver — the bad one among them — are exactly the 2f+1 every ABA
// accepts.
func TestACSRejectsSemivalidCiphertext(t *testing.T) {
	const bad, silent = 3, 2
	sched, envs := testEnvs(t, 5, 0)
	insts := make([]*ACS, len(envs))
	for i, env := range envs {
		insts[i] = newACS(env, Options{Coin: CoinSig, SharedCoin: true, Encrypt: true}).(*ACS)
	}
	proposal := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 64) }
	for i, a := range insts {
		switch i {
		case silent:
		case bad:
			ct, err := envs[i].Suite.TE.Encrypt(proposal(i), envs[i].Rand)
			if err != nil {
				t.Fatal(err)
			}
			raw := component.EncodeCiphertext(ct)
			raw[len(raw)-1] ^= 0xA5
			a.rbc.Propose(i, raw)
		default:
			a.Start(proposal(i))
		}
	}
	allDone := func() bool {
		for _, a := range insts {
			if a.Outputs() == nil {
				return false
			}
		}
		return true
	}
	for sched.Now() < time.Hour && !allDone() && sched.Step() {
	}
	for i, a := range insts {
		if a.Outputs() == nil {
			t.Fatalf("node %d still waits at %v: bad slot accepted=%v opened=%v",
				i, sched.Now(), a.slots[bad].accepted, a.slots[bad].opened)
		}
		out := a.Outputs()
		for slot := range out {
			want := proposal(slot)
			if slot == bad || slot == silent {
				want = nil
			}
			if !bytes.Equal(out[slot], want) {
				t.Errorf("node %d slot %d: output %q, want %q", i, slot, out[slot], want)
			}
		}
		if !a.slots[bad].accepted {
			t.Errorf("node %d: the bad slot was not accepted; the test did not reach the hand-off", i)
		}
		if r := envs[i].T.Stats().Rejected; r != 1 {
			t.Errorf("node %d counted %d rejected contributions, want 1", i, r)
		}
	}
}
