package component

import (
	"runtime"
	"testing"

	"repro/internal/crypto"
	"repro/internal/packet"
)

// brachaView is a vote-RBC view of a 4-node group: the sender's vote, then
// its echo and its ready for each voter.
func brachaView(vote uint8, echoes, readies [4]uint8) []byte {
	return append(append([]byte{vote}, echoes[:]...), readies[:]...)
}

// TestBrachaApplyViewAllocations: merging a peer's view into a phase that
// exists allocates nothing, whether the view changes nothing — the common
// case, every retransmission is one — or changes this node's own view too:
// the view is published from the phase's record, and the self-apply reads
// the same bytes.
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
	if allocs != 0 {
		t.Errorf("a view that changes this node's own: %v allocations, want 0", allocs)
	}
	if p := a.phase(0, r, 0); p.myEcho()[2] != voteZero || p.echoCnt()[2*3+voteZero] != 1 || p.view()[1+2] != voteZero {
		t.Fatalf("round %d: peer 2's vote was not echoed, published and self-applied", r)
	}
}

// TestBrachaPhaseBudget: a Bracha phase is a record carved from its
// agreement's slab and nothing of its own: at N = 4, the phases of an
// instance's rounds 2 to roundCap-1 cost at most 96 bytes each, the slab's
// chunks and its table of them amortized over them, and at most two
// allocations per chunk.
func TestBrachaPhaseBudget(t *testing.T) {
	side := newABASide(1, nil)
	side.env.T.SetInterceptor(nil)
	a := NewBrachaABA(side.env, BrachaOptions{Slots: 1})
	a.Input(0, true)
	a.phase(0, roundCap, 0) // the rounds table at its cap: only phases allocate below
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	phases := 0
	for r := uint16(2); r < roundCap; r++ {
		for ph := 0; ph < 3; ph++ {
			a.phase(0, r, ph)
			phases++
		}
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(phases); bytes > 96 {
		t.Errorf("a phase is %d bytes, want at most 96", bytes)
	}
	if mallocs, chunks := after.Mallocs-before.Mallocs, uint64(phases/brachaChunk+1); mallocs > 2*chunks {
		t.Errorf("%d phases made %d allocations, want at most 2 for each of their %d chunks", phases, mallocs, chunks)
	}
}

// TestCachinABASlotsOnFirstInput: a CachinABA keeps no record of an
// instance until its Input, so what it allocates until then — BVAL and AUX
// votes for every instance heard meanwhile included — is the same number of
// objects for 1 instance as for the 64 of Alea's serial agreement.
func TestCachinABASlotsOnFirstInput(t *testing.T) {
	suites, err := crypto.DealCached(4, 1, crypto.LightConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	side := newABASide(1, suites[0])
	side.env.T.SetInterceptor(nil)
	coin := FlipCoin(side.env)
	built := func(slots int) float64 {
		var votes []packet.Entry
		for slot := 0; slot < slots; slot++ {
			votes = append(votes, packet.Entry{Slot: uint8(slot), Round: 1, Data: []byte{1}})
		}
		return testing.AllocsPerRun(20, func() {
			a := NewCachinABA(side.env, coin, CachinOptions{Slots: slots})
			a.HandleSection(1, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseBval, Entries: votes})
			a.HandleSection(2, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseAux, Entries: votes})
		})
	}
	if one, many := built(1), built(64); many != one {
		t.Errorf("built before its first Input, a CachinABA is %v objects with 1 instance and %v with 64", one, many)
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
		if a.slots[0].rounds[1][1] == 0 {
			b.Fatal("phase 1 did not resolve")
		}
	}
}
