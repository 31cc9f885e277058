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
	slots []*brachaSlot
}

const (
	voteZero = 0
	voteOne  = 1
	voteBot  = 2
)

type brachaSlot struct {
	termination
	started bool
	round   uint16
	est     uint8 // voteZero or voteOne
	// rounds is indexed by round number and grows to the highest round
	// mentioned; applyView caps what a peer can mention at roundCap.
	rounds []brachaRound
}

type brachaRound struct {
	phases [3]*brachaPhase
}

// brachaPhase is one voting phase: N embedded vote-RBCs, one per voter.
// Every table is a span of one backing array. Counts are bytes: node ids
// and slots travel in one byte, so N fits.
type brachaPhase struct {
	myVote    uint8   // voteNone until cast
	votes     []uint8 // voter -> claimed vote (voteNone if unknown)
	myEcho    []uint8 // voter -> value I echoed (voteNone if none)
	myReady   []uint8
	delivered []uint8 // voter -> delivered vote (voteNone if not yet)
	echoes    []uint8 // voter*N + echoer -> value (voteNone if none yet)
	readies   []uint8
	echoCnt   []uint8 // voter*3 + value -> echoers that echoed it
	readyCnt  []uint8
	nDeliv    int
	resolved  bool // phase threshold reached and consumed
}

// BrachaOptions configures the component.
type BrachaOptions struct {
	Slots    int
	OnDecide func(slot int, value bool)
}

// NewBrachaABA creates the component and registers it on the transport.
func NewBrachaABA(env *Env, opts BrachaOptions) *BrachaABA {
	a := &BrachaABA{deciding: deciding{env: env, onDecide: opts.OnDecide, pruned: isVotePhase}}
	for i := 0; i < opts.Slots; i++ {
		s := &brachaSlot{}
		a.slots = append(a.slots, s)
		a.terms = append(a.terms, &s.termination)
	}
	a.start()
	env.T.Register(packet.KindABA, a)
	return a
}

func isVotePhase(p packet.Phase) bool { return p >= packet.PhaseVote1 && p <= packet.PhaseVote3 }

// Input starts an instance with an initial estimate.
func (a *BrachaABA) Input(slot int, v bool) {
	s := a.slots[slot]
	if s.started {
		return
	}
	s.started = true
	s.est = uint8(b2i(v))
	s.round = 1
	a.castVote(slot, s.round, 0, s.est)
}

func (a *BrachaABA) phase(slot int, round uint16, ph int) *brachaPhase {
	s := a.slots[slot]
	for len(s.rounds) <= int(round) {
		s.rounds = append(s.rounds, brachaRound{})
	}
	rd := &s.rounds[round]
	if rd.phases[ph] == nil {
		// Four vectors and two matrices of votes, all "none" to begin
		// with, then the two count tables.
		n := a.env.N
		votes := 4*n + 2*n*n
		buf := make([]uint8, votes+2*3*n)
		for i := range buf[:votes] {
			buf[i] = voteNone
		}
		carve := func(size int) []uint8 {
			span := buf[:size:size]
			buf = buf[size:]
			return span
		}
		rd.phases[ph] = &brachaPhase{
			myVote: voteNone,
			votes:  carve(n), myEcho: carve(n), myReady: carve(n), delivered: carve(n),
			echoes: carve(n * n), readies: carve(n * n),
			echoCnt: carve(3 * n), readyCnt: carve(3 * n),
		}
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
	view = append(view, p.myEcho...)
	view = append(view, p.myReady...)
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
	s := a.slots[slot]
	n := a.env.N
	if !s.started || a.halted.Get(slot) || int(round) > roundCap || len(data) < 1+2*n {
		return
	}
	p := a.phase(slot, round, ph)
	quorum, weak := a.env.Quorum(), a.env.Weak()
	changed := false

	// w's own vote: treat as the INITIAL of w's vote-RBC.
	if v := data[0]; v <= voteBot && p.votes[w] == voteNone {
		p.votes[w] = v
		if p.myEcho[w] == voteNone {
			p.myEcho[w] = v
			changed = true
		}
	}
	// w's echo vector.
	for u := 0; u < n; u++ {
		v := data[1+u]
		if v > voteBot || p.echoes[u*n+w] != voteNone {
			continue
		}
		p.echoes[u*n+w] = v
		p.echoCnt[u*3+int(v)]++
		if int(p.echoCnt[u*3+int(v)]) >= quorum && p.myReady[u] == voteNone {
			p.myReady[u] = v
			changed = true
		}
	}
	// w's ready vector.
	for u := 0; u < n; u++ {
		v := data[1+n+u]
		if v > voteBot || p.readies[u*n+w] != voteNone {
			continue
		}
		p.readies[u*n+w] = v
		p.readyCnt[u*3+int(v)]++
		cnt := int(p.readyCnt[u*3+int(v)])
		if cnt >= weak && p.myReady[u] == voteNone {
			p.myReady[u] = v
			changed = true
		}
		if cnt >= quorum && p.delivered[u] == voteNone {
			p.delivered[u] = v
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
	for _, v := range p.delivered {
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
