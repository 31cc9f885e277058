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

// TestRepairAnswerIsFragmentsOnly: a node that delivered slot 1 is asked
// for it by a PhaseRepair entry. All it puts up in answer are the slot's
// INITIAL fragments the request lacks — every one for an empty have-set,
// the missing one for a have-set that holds the others — and no ECHO,
// READY or FINISH: those return by the requester's NACK rows.
func TestRepairAnswerIsFragmentsOnly(t *testing.T) {
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
			ask := func(have packet.BitSet) []packet.Entry {
				rec := record(tn.envs[0])
				nodes[0].HandleSection(2, packet.Section{Kind: k.kind, Phase: packet.PhaseRepair,
					Entries: []packet.Entry{{Slot: 1, Data: have}}})
				tn.settle(time.Second)
				tn.envs[0].T.SetInterceptor(nil)
				for _, in := range rec.seen {
					if in.Phase != packet.PhaseInitial || in.Slot != 1 {
						t.Errorf("the repair answer put up phase %d slot %d", in.Phase, in.Slot)
					}
				}
				return rec.entries(packet.PhaseInitial, 1)
			}
			got := ask(packet.NewBitSet(maxFragments + 1))
			var whole []byte
			for i, e := range got {
				if int(e.Sub) != i || e.Flags != 3 {
					t.Errorf("fragment %d: sub %d of %d", i, e.Sub, e.Flags)
				}
				whole = append(whole, e.Data...)
			}
			if len(got) != 3 || !bytes.Equal(whole, want) || !bytes.Equal(nodes[0].Value(1), want) {
				t.Errorf("an empty have-set got %d fragments back, %d B, want 3 and the %d B value", len(got), len(whole), len(want))
			}
			tn.settle(2 * time.Second) // past the rate limit
			have := packet.NewBitSet(maxFragments + 1)
			have.Set(0)
			have.Set(2)
			if got := ask(have); len(got) != 1 || got[0].Sub != 1 {
				t.Errorf("a have-set lacking fragment 1 got %d fragments back, want fragment 1 alone", len(got))
			}
		})
	}
}

// TestRBCVotesReturnByRow is RBC's counterpart of
// TestHeldFinishOutlivesItsCombiners: once slot 1 has delivered everywhere
// and the channel is quiet, every node has parked its ECHO and READY for
// the slot, and the leader its fragments. Node 3 then comes back with no
// state and its repair requests kept off the air: the rows of its first
// frame show slot 1 undone, and what they bring back on demand — the
// fragments and the votes — is all it gets, and all it needs to deliver.
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
	env.T.SetInterceptor(dropPhase(packet.PhaseRepair))
	reborn := NewRBC(env, RBCOptions{Slots: 4})
	reborn.Propose(3, kernelValue(3, false)) // its first frame carries the rows
	tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return reborn.Delivered(1) })
	if !bytes.Equal(reborn.Value(1), want) {
		t.Errorf("the reborn node delivered %q…, want node 1's value", reborn.Value(1)[:1])
	}
}
