package component

import (
	"testing"

	"repro/internal/packet"
)

// brachaView is a vote-RBC view of a 4-node group: the sender's vote, then
// its echo and its ready for each voter.
func brachaView(vote uint8, echoes, readies [4]uint8) []byte {
	return append(append([]byte{vote}, echoes[:]...), readies[:]...)
}

// TestBrachaApplyViewAllocations: merging a peer's view into a phase that
// exists allocates nothing when the view changes nothing — the common case,
// every retransmission is one — and exactly the one published view when it
// does: the self-apply consumes the bytes publish built.
func TestBrachaApplyViewAllocations(t *testing.T) {
	side := newABASide(1, nil)
	side.env.T.SetInterceptor(nil) // the log allocates
	a := NewBrachaABA(side.env, BrachaOptions{Slots: 1})
	a.Input(0, true)
	none := [4]uint8{voteNone, voteNone, voteNone, voteNone}
	// Peer 1's vote makes this node echo it in rounds 1..40: the phases
	// exist and their intents are in the transport's store.
	const rounds = 40
	for r := uint16(1); r <= rounds; r++ {
		a.applyView(0, r, 0, 1, brachaView(voteOne, none, none))
	}

	repeat := brachaView(voteOne, none, none)
	if allocs := testing.AllocsPerRun(100, func() { a.applyView(0, 1, 0, 1, repeat) }); allocs != 0 {
		t.Errorf("a view that changes nothing: %v allocations, want 0", allocs)
	}

	// Peer 2's vote is news once per round: this node echoes it.
	news := brachaView(voteZero, none, none)
	r := uint16(1)
	allocs := testing.AllocsPerRun(rounds-2, func() {
		r++
		a.applyView(0, r, 0, 2, news)
	})
	if allocs != 1 {
		t.Errorf("a view that changes this node's own: %v allocations, want 1 (the view published)", allocs)
	}
	if p := a.phase(0, r, 0); p.myEcho[2] != voteZero || p.echoes[2*4+0] != voteZero {
		t.Fatalf("round %d: peer 2's vote was not echoed and self-applied", r)
	}
}

// BenchmarkBrachaApplyView is one phase of one fresh instance as node 0
// sees it: its own vote, then each peer's final view twice over (the
// second a retransmission that changes nothing), which delivers all four
// votes and casts the next phase's.
func BenchmarkBrachaApplyView(b *testing.B) {
	side := newABASide(1, nil)
	side.env.T.SetInterceptor(nil)
	ones := [4]uint8{voteOne, voteOne, voteOne, voteOne}
	sec := packet.Section{Kind: packet.KindABA, Phase: packet.PhaseVote1,
		Entries: []packet.Entry{{Slot: 0, Round: 1, Data: brachaView(voteOne, ones, ones)}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewBrachaABA(side.env, BrachaOptions{Slots: 1})
		a.Input(0, true)
		for w := uint16(1); w < 4; w++ {
			a.HandleSection(w, sec)
			a.HandleSection(w, sec)
		}
		if a.slots[0].rounds[1].phases[1] == nil {
			b.Fatal("phase 1 did not resolve")
		}
	}
}
