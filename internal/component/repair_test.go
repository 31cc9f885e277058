package component

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// broadcast is what RBC and CBC share of their API.
type broadcast interface {
	core.Handler
	Propose(slot int, value []byte)
	Delivered(slot int) bool
	Value(slot int) []byte
}

// repairKinds are the broadcasts that embed the dissemination kernel.
var repairKinds = []struct {
	name  string
	kind  packet.Kind
	build func(env *Env) broadcast
}{
	{"rbc", packet.KindRBC, func(env *Env) broadcast { return NewRBC(env, RBCOptions{Slots: 4}) }},
	{"cbc-value", packet.KindCBCValue, func(env *Env) broadcast {
		return NewCBC(env, CBCOptions{Kind: packet.KindCBCValue, Slots: 4})
	}},
	{"vcbc", packet.KindVCBC, func(env *Env) broadcast { return NewCBC(env, CBCOptions{Kind: packet.KindVCBC, Slots: 4}) }},
}

// TestRepairRowServesFragments: node 0 delivered slot 1, which node 1 led.
// It puts nothing on the air for a peer's frame with no REPAIR row, nor for
// one whose REPAIR row has every slot set. A REPAIR row that clears slot 1
// gets back every fragment of the value as REPAIR entries, and no ECHO,
// READY or FINISH: those return by their own rows. The row asks again with
// each frame, and an ask within a base period of the answer is answered a
// base period after it.
func TestRepairRowServesFragments(t *testing.T) {
	for _, k := range repairKinds {
		t.Run(k.name, func(t *testing.T) {
			tn := newTestNet(t, 51, 0, true)
			var nodes []broadcast
			for _, env := range tn.envs {
				nodes = append(nodes, k.build(env))
			}
			want := kernelValue(1, false) // three INITIAL fragments
			nodes[1].Propose(1, want)
			tn.run(t, 10*time.Minute, func() bool {
				for _, v := range nodes {
					if !v.Delivered(1) {
						return false
					}
				}
				return true
			})
			tn.settle(time.Minute)
			// Node 2 hears node 0's sections, and sends a frame whenever
			// the test asks.
			type section struct {
				at time.Duration
				packet.Section
			}
			var heard []section
			tn.envs[2].T.Register(k.kind, core.HandlerFunc(func(from uint16, sec packet.Section) {
				if from == 0 {
					// The section, its entries and their bytes are the
					// transport's only until the handler returns.
					sec.Nack = packet.BitSet(bytes.Clone(sec.Nack))
					sec.Entries = append([]packet.Entry(nil), sec.Entries...)
					for i := range sec.Entries {
						sec.Entries[i].Data = bytes.Clone(sec.Entries[i].Data)
					}
					heard = append(heard, section{tn.sched.Now(), sec})
				}
			}))
			asks := byte(0)
			ask := func() {
				asks++
				tn.envs[2].T.Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux}, Data: []byte{asks}})
			}
			row := func(clear ...int) packet.BitSet {
				b := packet.NewBitSet(4)
				for i := 0; i < 4; i++ {
					b.Set(i)
				}
				for _, i := range clear {
					b.Clear(i)
				}
				return b
			}
			silent := func(when string) {
				t.Helper()
				heard = nil
				ask()
				tn.settle(time.Minute)
				if len(heard) != 0 {
					t.Errorf("%s: node 0 put %d sections on the air", when, len(heard))
				}
			}
			// answers returns the REPAIR entries of each frame heard since
			// the last call, and when each was heard.
			answers := func() (out [][]packet.Entry, at []time.Duration) {
				for _, sec := range heard {
					switch {
					case len(sec.Entries) == 0:
					case sec.Phase == packet.PhaseRepair:
						out, at = append(out, sec.Entries), append(at, sec.at)
					default:
						t.Errorf("node 0 answered the REPAIR row with phase %d entries", sec.Phase)
					}
				}
				heard = nil
				return out, at
			}

			silent("no REPAIR row")
			base := tn.tcfg.RetxInterval
			tn.envs[2].T.SetNack(k.kind, packet.PhaseRepair, row(1))
			tn.settle(base / 2)
			served, at := answers()
			if len(served) != 1 {
				t.Fatalf("the REPAIR row got %d answers in %v, want 1", len(served), base/2)
			}
			var whole []byte
			for i, e := range served[0] {
				if e.Slot != 1 || int(e.Sub) != i || e.Flags != 3 {
					t.Errorf("fragment %d: slot %d sub %d of %d", i, e.Slot, e.Sub, e.Flags)
				}
				whole = append(whole, e.Data...)
			}
			if len(served[0]) != 3 || !bytes.Equal(whole, want) {
				t.Errorf("the REPAIR row got %d fragments back, %d B, want 3 and the %d B value", len(served[0]), len(whole), len(want))
			}
			ask()
			tn.settle(base / 2)
			if again, _ := answers(); len(again) != 0 {
				t.Fatalf("an ask %v after the answer was answered at once", base/2)
			}
			// Frames are heard when their last fragment lands, up to a
			// frame's airtime after they were built: a second of slack.
			tn.settle(base)
			if again, when := answers(); len(again) != 1 || when[0]-at[0] < base-time.Second {
				t.Fatalf("the second ask: %d answers at %v, the first at %v, want one a base period after the first", len(again), when, at)
			}
			tn.envs[2].T.SetNack(k.kind, packet.PhaseRepair, row())
			tn.settle(10 * time.Second)
			silent("a REPAIR row with every slot set")
		})
	}
}

// TestRBCVotesReturnByRow is RBC's counterpart of
// TestHeldFinishOutlivesItsCombiners: once slot 1 has delivered everywhere
// and the channel is quiet, every node has parked its ECHO and READY for
// the slot, and the leader its fragments. Node 3 then comes back with no
// state: the rows of its first frame show slot 1 undone, and what they
// bring back on demand — the fragments and the votes — is all it gets, and
// all it needs to deliver.
func TestRBCVotesReturnByRow(t *testing.T) {
	tn := newTestNet(t, 52, 0, true)
	var nodes []*RBC
	for _, env := range tn.envs {
		nodes = append(nodes, NewRBC(env, RBCOptions{Slots: 4}))
	}
	want := kernelValue(1, false)
	nodes[1].Propose(1, want)
	tn.run(t, 10*time.Minute, func() bool {
		for _, v := range nodes {
			if !v.Delivered(1) {
				return false
			}
		}
		return true
	})
	tn.settle(time.Minute)
	quiet := tn.ch.Stats().Accesses
	tn.settle(time.Minute)
	if n := tn.ch.Stats().Accesses - quiet; n != 0 {
		t.Fatalf("%d channel accesses a minute after delivery: not everything is parked", n)
	}
	tn.crash(3)
	tn.settle(10 * time.Second)
	env := tn.recover(3)
	reborn := NewRBC(env, RBCOptions{Slots: 4})
	reborn.Propose(3, kernelValue(3, false)) // its first frame carries the rows
	tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return reborn.Delivered(1) })
	if !bytes.Equal(reborn.Value(1), want) {
		t.Errorf("the reborn node delivered %q…, want node 1's value", reborn.Value(1)[:1])
	}
}
