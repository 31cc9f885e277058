package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// BrachaABA runs k parallel (or serial) instances of Bracha's
// local-coin binary agreement (Fig. 1c): each round has three voting
// phases, and each phase's votes are themselves reliably broadcast (the
// source of the O(N^3) wired message complexity the paper cites). Votes
// are tiny (0/1/⊥), so the vote-RBC rides the RBC-small packet shape
// (Fig. 5a), and the whole per-round state batches per Fig. 6a.
//
// Wire form: one entry per (slot, phase) carrying the node's full
// vote-RBC view — its own vote plus its echo and ready vectors over all
// voters — so a single batched frame carries everything the paper's
// Nack_RBC_1..3 fields do.
//
// Termination is the DECIDED-claim gadget CachinABA uses (deciding).
type BrachaABA struct {
	deciding
	slots []*brachaSlot // by instance, nil until its Input
}

const (
	voteZero = 0
	voteOne  = 1
	voteBot  = 2
)

type brachaSlot struct {
	round uint16
	est   uint8 // voteZero or voteOne
	// rounds is indexed by round number and grows to the highest round
	// mentioned; applyView caps what a peer can mention at roundCap.
	rounds []brachaRound
}

type brachaRound struct {
	phases [3]*brachaPhase
}

// brachaPhase is one voting phase: N embedded vote-RBCs, one per voter.
// Its eight tables lie in one block at fixed offsets, read through the
// methods below: four N-vectors, then two N×N matrices, all voteNone until
// set, then two 3N count tables. Counts are bytes: node ids and slots
// travel in one byte, so N fits.
type brachaPhase struct {
	n        int
	nDeliv   int
	myVote   uint8 // voteNone until cast
	resolved bool  // phase threshold reached and consumed
	block    []uint8
}

func newBrachaPhase(n int) *brachaPhase {
	votes := 4*n + 2*n*n
	p := &brachaPhase{n: n, myVote: voteNone, block: make([]uint8, votes+2*3*n)}
	for i := range p.block[:votes] {
		p.block[i] = voteNone
	}
	return p
}

func (p *brachaPhase) span(at, size int) []uint8 { return p.block[at : at+size : at+size] }

// votes is voter -> claimed vote (voteNone if unknown).
func (p *brachaPhase) votes() []uint8 { return p.span(0, p.n) }

// myEcho is voter -> value I echoed (voteNone if none); myReady follows it.
func (p *brachaPhase) myEcho() []uint8  { return p.span(p.n, p.n) }
func (p *brachaPhase) myReady() []uint8 { return p.span(2*p.n, p.n) }

// delivered is voter -> delivered vote (voteNone if not yet).
func (p *brachaPhase) delivered() []uint8 { return p.span(3*p.n, p.n) }

// echoes is voter*N + echoer -> value (voteNone if none yet); readies too.
func (p *brachaPhase) echoes() []uint8  { return p.span(4*p.n, p.n*p.n) }
func (p *brachaPhase) readies() []uint8 { return p.span(4*p.n+p.n*p.n, p.n*p.n) }

// echoCnt is voter*3 + value -> echoers that echoed it; readyCnt too.
func (p *brachaPhase) echoCnt() []uint8  { return p.span(4*p.n+2*p.n*p.n, 3*p.n) }
func (p *brachaPhase) readyCnt() []uint8 { return p.span(7*p.n+2*p.n*p.n, 3*p.n) }

// BrachaOptions configures the component.
type BrachaOptions struct {
	Slots    int
	OnDecide func(slot int, value bool)
}

// NewBrachaABA creates the component and registers it on the transport.
func NewBrachaABA(env *Env, opts BrachaOptions) *BrachaABA {
	a := &BrachaABA{deciding: deciding{env: env, onDecide: opts.OnDecide, pruned: isVotePhase}}
	a.slots = make([]*brachaSlot, opts.Slots)
	a.start(opts.Slots)
	env.T.Register(packet.KindABA, a)
	return a
}

func isVotePhase(p packet.Phase) bool { return p >= packet.PhaseVote1 && p <= packet.PhaseVote3 }

// Input starts an instance with an initial estimate.
func (a *BrachaABA) Input(slot int, v bool) {
	if a.slots[slot] != nil {
		return
	}
	a.slots[slot] = &brachaSlot{est: uint8(b2i(v)), round: 1}
	a.castVote(slot, 1, 0, uint8(b2i(v)))
}

func (a *BrachaABA) phase(slot int, round uint16, ph int) *brachaPhase {
	s := a.slots[slot]
	for len(s.rounds) <= int(round) {
		s.rounds = append(s.rounds, brachaRound{})
	}
	rd := &s.rounds[round]
	if rd.phases[ph] == nil {
		rd.phases[ph] = newBrachaPhase(a.env.N)
	}
	return rd.phases[ph]
}

// castVote sets this node's vote for (slot, round, phase), publishes the
// updated vote-RBC view and applies it locally.
func (a *BrachaABA) castVote(slot int, round uint16, ph int, v uint8) {
	p := a.phase(slot, round, ph)
	if p.myVote != voteNone {
		return
	}
	p.myVote = v
	a.applyView(slot, round, ph, a.env.Me, a.publish(slot, round, ph))
}

// publish puts my vote-RBC view [myVote | echo[N] | ready[N]] on the air
// and returns it. The bytes are a snapshot nobody writes again (an
// interceptor that corrupts an intent corrupts a copy), so the caller
// applies the same ones locally.
func (a *BrachaABA) publish(slot int, round uint16, ph int) []byte {
	p := a.phase(slot, round, ph)
	view := make([]byte, 0, 1+2*a.env.N)
	view = append(view, p.myVote)
	view = append(view, p.myEcho()...)
	view = append(view, p.myReady()...)
	a.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{
			Kind:  packet.KindABA,
			Phase: packet.PhaseVote1 + packet.Phase(ph),
			Slot:  uint8(slot),
			Round: round,
		},
		Data: view,
	})
	return view
}

// HandleSection implements core.Handler.
func (a *BrachaABA) HandleSection(from uint16, sec packet.Section) {
	w, ok := a.env.peer(from)
	if !ok {
		return
	}
	switch {
	case isVotePhase(sec.Phase):
		ph := int(sec.Phase - packet.PhaseVote1)
		for _, e := range sec.Entries {
			if int(e.Slot) >= len(a.slots) {
				continue
			}
			a.applyView(int(e.Slot), e.Round, ph, w, e.Data)
		}
	case sec.Phase == packet.PhaseDecided:
		a.handleDecided(w, sec)
	}
}

// applyView merges a peer's vote-RBC view into local state, advancing the
// embedded per-vote reliable broadcasts. A peer's first vote, echo or
// ready for a voter is the one that counts.
func (a *BrachaABA) applyView(slot int, round uint16, ph int, w int, data []byte) {
	n := a.env.N
	if a.slots[slot] == nil || a.halted.Get(slot) || int(round) > roundCap || len(data) < 1+2*n {
		return
	}
	p := a.phase(slot, round, ph)
	votes, myEcho, myReady, delivered := p.votes(), p.myEcho(), p.myReady(), p.delivered()
	quorum, weak := a.env.Quorum(), a.env.Weak()
	changed := false

	// w's own vote: treat as the INITIAL of w's vote-RBC.
	if v := data[0]; v <= voteBot && votes[w] == voteNone {
		votes[w] = v
		if myEcho[w] == voteNone {
			myEcho[w] = v
			changed = true
		}
	}
	// w's echo vector.
	echoes, echoCnt := p.echoes(), p.echoCnt()
	for u := 0; u < n; u++ {
		v := data[1+u]
		if v > voteBot || echoes[u*n+w] != voteNone {
			continue
		}
		echoes[u*n+w] = v
		echoCnt[u*3+int(v)]++
		if int(echoCnt[u*3+int(v)]) >= quorum && myReady[u] == voteNone {
			myReady[u] = v
			changed = true
		}
	}
	// w's ready vector.
	readies, readyCnt := p.readies(), p.readyCnt()
	for u := 0; u < n; u++ {
		v := data[1+n+u]
		if v > voteBot || readies[u*n+w] != voteNone {
			continue
		}
		readies[u*n+w] = v
		readyCnt[u*3+int(v)]++
		cnt := int(readyCnt[u*3+int(v)])
		if cnt >= weak && myReady[u] == voteNone {
			myReady[u] = v
			changed = true
		}
		if cnt >= quorum && delivered[u] == voteNone {
			delivered[u] = v
			p.nDeliv++
		}
	}
	if changed {
		a.applyView(slot, round, ph, a.env.Me, a.publish(slot, round, ph))
	}
	a.checkPhase(slot, round, ph)
}

// checkPhase fires when N-f votes of a phase have been vote-RBC-delivered.
func (a *BrachaABA) checkPhase(slot int, round uint16, ph int) {
	s := a.slots[slot]
	if a.halted.Get(slot) || round != s.round {
		return
	}
	p := a.phase(slot, round, ph)
	if p.resolved || p.myVote == voteNone || p.nDeliv < a.env.N-a.env.F {
		return
	}
	p.resolved = true
	counts := [3]int{}
	for _, v := range p.delivered() {
		if v != voteNone {
			counts[v]++
		}
	}
	switch ph {
	case 0:
		// Phase 2 vote = majority of delivered phase-1 votes.
		m := voteZero
		if counts[voteOne] > counts[voteZero] {
			m = voteOne
		}
		a.castVote(slot, round, 1, uint8(m))
	case 1:
		// Phase 3 vote = v if > N/2 delivered phase-2 votes agree, else ⊥.
		x := uint8(voteBot)
		for _, v := range []uint8{voteZero, voteOne} {
			if counts[v] > a.env.N/2 {
				x = v
			}
		}
		a.castVote(slot, round, 2, x)
	case 2:
		a.finishRound(slot, round, counts)
	}
}

func (a *BrachaABA) finishRound(slot int, round uint16, counts [3]int) {
	s := a.slots[slot]
	v, c := voteZero, counts[voteZero]
	if counts[voteOne] > c {
		v, c = voteOne, counts[voteOne]
	}
	switch {
	case c >= a.env.Quorum():
		s.est = uint8(v)
		a.decide(slot, v == voteOne)
	case c >= a.env.Weak():
		s.est = uint8(v)
	default:
		// Local coin: private randomness, the paper's ABA-LC.
		s.est = uint8(a.env.Rand.Intn(2))
	}
	if a.halted.Get(slot) {
		return
	}
	if int(round)+1 > roundCap {
		panic("component: bracha ABA exceeded round cap (liveness bug)")
	}
	s.round = round + 1
	if s.round >= 2 {
		// Rounds before the previous one park, as CachinABA's do
		// (pruneRounds).
		cutoff := s.round - 1
		a.env.T.ParkWhere(func(k core.IntentKey) bool {
			return k.Kind == packet.KindABA && int(k.Slot) == slot &&
				isVotePhase(k.Phase) && k.Round != 0 && k.Round < cutoff
		})
	}
	a.castVote(slot, s.round, 0, s.est)
}
