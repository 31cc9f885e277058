package protocol

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/crypto/threshenc"
)

// TestACSRejectsSemivalidCiphertext runs one encrypted epoch in which an
// accepted slot holds a ciphertext that parses and fails its binding tag —
// what an equivocating proposer's mixed fragments reassemble to. No node
// can make a decryption share of it, so the epoch must not wait for its
// plaintext: every node finishes with that slot empty, having counted one
// rejected contribution.
func TestACSRejectsSemivalidCiphertext(t *testing.T) {
	rejected := runBadCiphertextEpoch(t, func(env *component.Env, plain []byte) []byte {
		ct, err := env.Suite.TE.Encrypt(plain, env.Rand)
		if err != nil {
			t.Fatal(err)
		}
		raw := component.EncodeCiphertext(env.Suite.TE.Group, ct)
		raw[len(raw)-1] ^= 0xA5
		return raw
	})
	for i, r := range rejected {
		if r != 1 {
			t.Errorf("node %d counted %d rejected contributions, want 1", i, r)
		}
	}
}

// TestACSRefusesUncommittedCiphertext runs one encrypted epoch in which
// an accepted slot holds a Byzantine proposer's ciphertext made under
// another key: its tag holds, every node makes a decryption share of it,
// and no honest shares meet its key commitment. The 2f+1 bare shares a
// node combines agree on a key that fails the commitment: every node must
// refuse the ciphertext, count the rejection, and finish the epoch with
// that slot empty.
func TestACSRefusesUncommittedCiphertext(t *testing.T) {
	rejected := runBadCiphertextEpoch(t, func(env *component.Env, plain []byte) []byte {
		other, err := threshenc.Deal(env.Suite.TE.Group, env.Suite.TE.K, env.N, env.Rand)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := other.Public.Encrypt(plain, env.Rand)
		if err != nil {
			t.Fatal(err)
		}
		return component.EncodeCiphertext(env.Suite.TE.Group, ct)
	})
	for i, r := range rejected {
		if r == 0 {
			t.Errorf("node %d refused the ciphertext and counted no rejection", i)
		}
	}
}

// runBadCiphertextEpoch runs one encrypted epoch on four nodes in which
// node 3 proposes what bad makes of its proposal and node 2 proposes
// nothing, so the three slots that deliver — the bad one among them — are
// exactly the 2f+1 every ABA accepts. Every node must finish with the bad
// slot and the silent one empty and the others' proposals in place; it
// returns the rejections each node counted.
func runBadCiphertextEpoch(t *testing.T, bad func(env *component.Env, plain []byte) []byte) []uint64 {
	const badSlot, silent = 3, 2
	sched, envs := testEnvs(t, 5, 0)
	insts := make([]*ACS, len(envs))
	for i, env := range envs {
		insts[i] = newACS(env, Options{Coin: CoinSig, Encrypt: true}).(*ACS)
	}
	proposal := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 64) }
	for i, a := range insts {
		switch i {
		case silent:
		case badSlot:
			a.rbc.Propose(i, bad(envs[i], proposal(i)))
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
	rejected := make([]uint64, len(insts))
	for i, a := range insts {
		if a.Outputs() == nil {
			d := a.aba.Decided(badSlot)
			t.Fatalf("node %d still waits at %v: bad slot accepted=%v opened=%v",
				i, sched.Now(), d != nil && *d, a.slots[badSlot].opened)
		}
		out := a.Outputs()
		for slot := range out {
			want := proposal(slot)
			if slot == badSlot || slot == silent {
				want = nil
			}
			if !bytes.Equal(out[slot], want) {
				t.Errorf("node %d slot %d: output %q, want %q", i, slot, out[slot], want)
			}
		}
		if !*a.aba.Decided(badSlot) {
			t.Errorf("node %d: the bad slot was not accepted; the test did not reach the hand-off", i)
		}
		rejected[i] = envs[i].T.Stats().Rejected
	}
	return rejected
}
