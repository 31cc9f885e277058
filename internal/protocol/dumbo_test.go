package protocol

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/packet"
)

// echoTap records whether its node put up an ECHO entry for one
// CBC-value slot, and passes every intent through.
type echoTap struct {
	slot   uint8
	echoed bool
}

func (e *echoTap) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	if in.Kind == packet.KindCBCValue && in.Phase == packet.PhaseEcho && in.Slot == e.slot {
		e.echoed = true
	}
	return []core.Intent{in}
}

// heldSlots are the slots d holds a PRBC proof for, in order.
func heldSlots(d *Dumbo) []int {
	var out []int
	for s := 0; s < d.env.N; s++ {
		if _, held := d.proofs[s]; held {
			out = append(out, s)
		}
	}
	return out
}

// TestDumboRejectsRepeatedSlotVector: the π-first candidate is Byzantine
// and CBC-broadcasts a vector no honest node may echo.
//   - repeated-slot: one genuine (slot, hash) pair 2f+1 times over. Judged
//     by its length alone it would fix an output set of a single proposal.
//   - semivalid: 2f+1 distinct slots, one of them paired with a hash no
//     PRBC proof vouches for.
//
// Every honest node refuses the vector at the echo, counting one
// rejection: none echoes or delivers it, and each decides 2f+1 proposals
// or more, in agreement.
func TestDumboRejectsRepeatedSlotVector(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vector func(byz *Dumbo) []byte
	}{
		{"repeated-slot", func(byz *Dumbo) []byte {
			slot := heldSlots(byz)[0]
			h := byz.proofs[slot]
			var w []byte
			for i := 0; i < byz.env.Quorum(); i++ {
				w = append(append(w, byte(slot)), h[:]...)
			}
			return w
		}},
		{"semivalid", func(byz *Dumbo) []byte {
			var w []byte
			for i, slot := range heldSlots(byz)[:byz.env.Quorum()] {
				h := byz.proofs[slot]
				if i == 0 {
					h = component.HashValue([]byte("no proof vouches for this"))
				}
				w = append(append(w, byte(slot)), h[:]...)
			}
			return w
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, envs := testEnvs(t, 7, 0)
			first := commonPermutation("dumbo-pi", envs[0].Session, 0, len(envs))[0]
			insts := make([]*Dumbo, len(envs))
			taps := make([]*echoTap, len(envs))
			for i, env := range envs {
				taps[i] = &echoTap{slot: uint8(first)}
				env.T.SetInterceptor(taps[i])
				insts[i] = newDumbo(env, Options{Coin: CoinSig}).(*Dumbo)
				insts[i].Start(bytes.Repeat([]byte{byte('a' + i)}, 64))
			}
			byz := insts[first]
			byz.valueSent = true // the test sends its vector, below
			forged := false
			allDone := func() bool {
				for _, d := range insts {
					if d.Outputs() == nil {
						return false
					}
				}
				return true
			}
			for sched.Now() < time.Hour && !allDone() && sched.Step() {
				if !forged && len(byz.proofs) >= byz.env.Quorum() {
					forged = true
					byz.cbcValue.Propose(first, tc.vector(byz))
				}
			}
			if !forged {
				t.Fatal("the Byzantine node never held 2f+1 proofs")
			}
			var honest []Instance
			for i, d := range insts {
				if d.Outputs() == nil {
					t.Fatalf("node %d undecided at %v", i, sched.Now())
				}
				if i == first {
					continue
				}
				honest = append(honest, d)
				if taps[i].echoed {
					t.Errorf("node %d echoed the forged vector", i)
				}
				if d.cbcValue.Delivered(first) {
					t.Errorf("node %d delivered the forged vector", i)
				}
				if r := envs[i].T.Stats().Rejected; r != 1 {
					t.Errorf("node %d counted %d rejections, want 1: the forged vector", i, r)
				}
				filled := 0
				for _, out := range d.Outputs() {
					if out != nil {
						filled++
					}
				}
				if filled < envs[i].Quorum() {
					t.Errorf("node %d decided %d proposals, want at least 2f+1 = %d", i, filled, envs[i].Quorum())
				}
			}
			if err := AgreementCheck(honest); err != nil {
				t.Error(err)
			}
		})
	}
}
