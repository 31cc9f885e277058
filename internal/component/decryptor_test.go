package component

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// busy keeps an intent of another kind on env's node's air, refreshed
// every five seconds, the way a node whose common subset is still running
// keeps sending its RBC and ABA state: every refresh goes out in a frame,
// with every NACK row the node has installed.
func busy(tn *testNet, env *Env) {
	var n byte
	var tick func()
	tick = func() {
		n++
		env.T.Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Sub: uint8(env.Me)}, Data: []byte{n}})
		tn.sched.At(tn.sched.Now()+5*time.Second, tick)
	}
	tick()
}

// decWire is what one node heard of its peers' DEC traffic, by sender:
// the DEC sections that carried a NACK row, and the share entries. Its
// Decryptor (if any) gets every section until the node goes deaf.
type decWire struct {
	rows, shares [4]int
	deaf         bool
}

// hearDec puts a decWire in front of env's node's DEC handler, d.
func hearDec(env *Env, d *Decryptor) *decWire {
	w := &decWire{}
	env.T.Register(packet.KindDec, core.HandlerFunc(func(from uint16, sec packet.Section) {
		if int(from) < len(w.rows) && sec.Phase == packet.PhaseDecShare {
			if len(sec.Nack) > 0 {
				w.rows[from]++
			}
			w.shares[from] += len(sec.Entries)
		}
		if d != nil && !w.deaf {
			d.HandleSection(from, sec)
		}
	}))
	return w
}

// TestDecryptorRowFollowsSubset: a node asks for decryption shares only
// once it has a ciphertext to use them on. Node 3's common subset is
// still running — it keeps other state on the air — while nodes 0–2
// submit slot 0's ciphertext and combine it. Node 3's frames carry no DEC
// row, the shares it hears park, and once the three have combined, none
// of them sends it a share again for as long as it shows no row. Its
// Submit puts the row on the air, and the slot combines from the parked
// shares alone: from the Submit on, node 3's Decryptor hears nothing.
func TestDecryptorRowFollowsSubset(t *testing.T) {
	tn := newTestNet(t, 12, 0, true)
	plain := []byte("fixed by the common subset")
	ct, err := tn.envs[0].Suite.TE.Encrypt(plain, tn.envs[0].Rand)
	if err != nil {
		t.Fatal(err)
	}
	decs := make([]*Decryptor, 4)
	heard := make([]*decWire, 4)
	for i, env := range tn.envs {
		decs[i] = NewDecryptor(env, 4, nil)
		heard[i] = hearDec(env, decs[i])
	}
	frames := 0 // node 3's frames node 0 heard
	tn.envs[0].T.Register(packet.KindRBC, core.HandlerFunc(func(from uint16, _ packet.Section) {
		if from == 3 {
			frames++
		}
	}))
	late := decs[3]
	rowsOf3 := func() int { return heard[0].rows[3] + heard[1].rows[3] + heard[2].rows[3] }
	sharesTo3 := func() int { return heard[3].shares[0] + heard[3].shares[1] + heard[3].shares[2] }

	busy(tn, tn.envs[3])
	for i := 0; i < 3; i++ {
		decs[i].Submit(0, ct)
	}
	tn.run(t, 10*time.Minute, func() bool {
		return decs[0].Plaintext(0) != nil && decs[1].Plaintext(0) != nil && decs[2].Plaintext(0) != nil
	})
	tn.settle(30 * time.Second) // the three rows that show slot 0 combined reach every peer
	parked := 0
	for _, sh := range late.tallies[0].parked {
		if sh != nil {
			parked++
		}
	}
	if parked != 3 {
		t.Errorf("node 3 parked %d peers' shares ahead of its ciphertext, want 3", parked)
	}
	if late.Plaintext(0) != nil {
		t.Fatal("node 3 decrypted without the ciphertext")
	}

	// Ten quiet minutes, over nine times the slowest re-send period (64 s):
	// node 3 keeps sending frames, none with a DEC row, and no peer re-sends
	// it a share.
	framesBefore, sharesBefore := frames, sharesTo3()
	tn.settle(10 * time.Minute)
	if frames-framesBefore < 10 {
		t.Fatalf("node 0 heard %d frames of node 3's in ten minutes: the check below sees nothing", frames-framesBefore)
	}
	if n := rowsOf3(); n != 0 {
		t.Errorf("node 3 put a DEC row on the air %d times before it had a ciphertext", n)
	}
	if n := sharesTo3() - sharesBefore; n != 0 {
		t.Errorf("peers re-sent %d shares to node 3, which showed no DEC row", n)
	}

	heard[3].deaf = true
	late.Submit(0, ct)
	tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return late.Plaintext(0) != nil && rowsOf3() > 0 })
	if !bytes.Equal(late.Plaintext(0), plain) {
		t.Errorf("node 3 decrypted %q, want %q", late.Plaintext(0), plain)
	}
}

// TestShareRowPoints pins where the other two users of the per-slot share
// tally put their NACK row on the air (TestDecryptorRowFollowsSubset pins
// the Decryptor's, at its first Submit). PRBC's DONE row goes up when the
// component is made: node 1's first frame carries it, before any RBC has
// delivered. The cut certificate's row goes up at Begin: node 1 keeps
// other state on the air for ten minutes while its peers combine the
// certificate, and none of those frames carries a cut row; after Begin,
// its frames do.
func TestShareRowPoints(t *testing.T) {
	t.Run("prbc-done", func(t *testing.T) {
		tn := newTestNet(t, 12, 0, true)
		nodes := make([]*PRBC, 4)
		delivered := time.Duration(-1) // the first RBC delivery at any node
		for i, env := range tn.envs {
			nodes[i] = NewPRBC(env, PRBCOptions{Slots: 4, OnDeliver: func(int, []byte) {
				if delivered < 0 {
					delivered = tn.sched.Now()
				}
			}})
		}
		// When node 0 first heard node 1, and whether that frame had the row.
		first, row := time.Duration(-1), false
		tap := func(h core.Handler) core.Handler {
			return core.HandlerFunc(func(from uint16, sec packet.Section) {
				if from == 1 && (first < 0 || first == tn.sched.Now()) {
					first = tn.sched.Now()
					row = row || sec.Kind == packet.KindPRBC && sec.Phase == packet.PhaseDone && len(sec.Nack) > 0
				}
				h.HandleSection(from, sec)
			})
		}
		tn.envs[0].T.Register(packet.KindRBC, tap(nodes[0].RBC()))
		tn.envs[0].T.Register(packet.KindPRBC, tap(&nodes[0].dones))
		nodes[1].Propose(1, []byte("proposal of node 1"))
		tn.run(t, 10*time.Minute, func() bool { return nodes[0].Proof(1) != nil && nodes[1].Proof(1) != nil })
		if first < 0 || first >= delivered {
			t.Fatalf("node 0 first heard node 1 at %v, the first RBC delivered at %v", first, delivered)
		}
		if !row {
			t.Errorf("node 1's first frame, at %v, carried no DONE row", first)
		}
	})
	t.Run("cut-cert", func(t *testing.T) {
		tn := newTestNet(t, 12, 0, true)
		certs := make([]*CutCert, 4)
		for i, env := range tn.envs {
			certs[i] = NewCutCert(env, func([]byte) {})
			env.T.Register(packet.KindGlobal, certs[i])
		}
		frames, rows := 0, 0 // node 1's frames node 0 heard, and the cut rows among them
		tn.envs[0].T.Register(packet.KindRBC, core.HandlerFunc(func(from uint16, _ packet.Section) {
			if from == 1 {
				frames++
			}
		}))
		tn.envs[0].T.Register(packet.KindGlobal, core.HandlerFunc(func(from uint16, sec packet.Section) {
			if from == 1 && sec.Phase == packet.PhaseDone && len(sec.Nack) > 0 {
				rows++
			}
			certs[0].HandleSection(from, sec)
		}))
		busy(tn, tn.envs[1])
		msg := []byte("cut of cluster 1, epoch 3")
		for _, i := range []int{0, 2, 3} {
			certs[i].Begin(msg)
		}
		tn.run(t, 10*time.Minute, func() bool {
			return certs[0].Cert() != nil && certs[2].Cert() != nil && certs[3].Cert() != nil
		})
		tn.settle(10 * time.Minute)
		if frames < 10 {
			t.Fatalf("node 0 heard %d frames of node 1's: the check below sees nothing", frames)
		}
		if rows != 0 {
			t.Errorf("node 1 put its cut row on the air %d times before Begin", rows)
		}
		certs[1].Begin(msg)
		tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return certs[1].Cert() != nil && rows > 0 })
	})
}
