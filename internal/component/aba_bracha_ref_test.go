package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// This file is an earlier commit's map-based binary-agreement state, kept
// (types renamed ref*) as the oracle of the reference-model tests in
// aba_ref_test.go: the DECIDED gadget with its claims map, and Bracha's ABA
// with its per-round map, its per-voter echo/ready maps counted by
// iteration, and a view built once for publish and once for the
// self-apply. Do not modernise it. What the gadget puts on the air has
// changed since, and the oracle with it: its NACK row of halted instances,
// and the prune to the DECIDED claims once every instance has halted.

// refTermination is one instance's share of the DECIDED gadget, embedded by
// value in the instance's slot.
type refTermination struct {
	decided *bool
	halted  bool
	claims  map[int]bool // DECIDED claims by peer
}

// refDeciding is the DECIDED refTermination gadget of binary agreement, embedded
// by value in CachinABA and BrachaABA: a node that decides broadcasts a
// DECIDED claim and keeps participating in rounds (deterministically,
// est = v) until N-f claims confirm that every honest node can terminate
// from claims alone.
type refDeciding struct {
	env      *Env
	terms    []*refTermination
	onDecide func(slot int, value bool)
	// pruned says which of a halted instance's per-round intents go off
	// the air: all the owning agreement tells the gadget about itself.
	pruned func(packet.Phase) bool
	halted map[int]bool // the instances halted, published as a NACK row
}

// start installs the DECIDED row.
func (d *refDeciding) start() {
	d.halted = make(map[int]bool)
	d.env.T.SetNack(packet.KindABA, packet.PhaseDecided, d.haltedRow())
}

// haltedRow renders the halted instances as a NACK row.
func (d *refDeciding) haltedRow() packet.BitSet {
	row := packet.NewBitSet(len(d.terms))
	for slot := range d.halted {
		row.Set(slot)
	}
	return row
}

// Decided returns the decision for a slot, or nil.
func (d *refDeciding) Decided(slot int) *bool { return d.terms[slot].decided }

// DecidedCount returns how many instances have decided.
func (d *refDeciding) DecidedCount() int {
	n := 0
	for _, t := range d.terms {
		if t.decided != nil {
			n++
		}
	}
	return n
}

// decide records the local decision and broadcasts a DECIDED claim.
func (d *refDeciding) decide(slot int, v bool) {
	t := d.terms[slot]
	if t.decided != nil {
		return
	}
	dec := v
	t.decided = &dec
	d.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseDecided, Slot: uint8(slot)},
		Data:      []byte{uint8(b2i(v))},
	})
	d.applyDecided(slot, d.env.Me, v)
	if d.onDecide != nil {
		d.onDecide(slot, v)
	}
}

// handleDecided takes a peer's DECIDED section.
func (d *refDeciding) handleDecided(w int, sec packet.Section) {
	for _, e := range sec.Entries {
		if int(e.Slot) >= len(d.terms) || len(e.Data) < 1 {
			continue
		}
		d.applyDecided(int(e.Slot), w, e.Data[0] == 1)
	}
}

func (d *refDeciding) applyDecided(slot, w int, v bool) {
	t := d.terms[slot]
	if _, seen := t.claims[w]; seen {
		return
	}
	if t.claims == nil {
		t.claims = make(map[int]bool)
	}
	t.claims[w] = v
	matching := 0
	for _, cv := range t.claims {
		if cv == v {
			matching++
		}
	}
	// f+1 matching claims contain one honest decider: adopt.
	if matching >= d.env.Weak() && t.decided == nil {
		d.decide(slot, v)
	}
	// N-f claims: every honest node can now terminate from claims alone.
	if matching >= d.env.N-d.env.F && !t.halted {
		t.halted = true
		d.halted[slot] = true
		d.env.T.SetNack(packet.KindABA, packet.PhaseDecided, d.haltedRow())
		d.env.T.RemoveWhere(func(k core.IntentKey) bool {
			return k.Kind == packet.KindABA && int(k.Slot) == slot && d.pruned(k.Phase)
		})
		if len(d.halted) == len(d.terms) {
			d.env.T.RemoveWhere(func(k core.IntentKey) bool {
				return k.Kind == packet.KindABA && k.Phase != packet.PhaseDecided
			})
		}
	}
}

// refBrachaABA runs k parallel (or serial) instances of Bracha's
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
// Termination is the DECIDED-claim gadget CachinABA uses (refDeciding).
type refBrachaABA struct {
	refDeciding
	slots []*refBrachaSlot
}

type refBrachaSlot struct {
	refTermination
	started bool
	round   uint16
	est     uint8 // voteZero or voteOne
	rounds  map[uint16]*refBrachaRound
}

type refBrachaRound struct {
	phases [3]*refBrachaPhase
}

type refBrachaPhase struct {
	myVote    uint8   // voteNone until cast
	votes     []uint8 // voter -> claimed vote (voteNone if unknown)
	myEcho    []uint8 // voter -> value I echoed (voteNone if none)
	myReady   []uint8
	echoes    []map[int]uint8 // voter -> {echoer -> value}
	readies   []map[int]uint8
	delivered []uint8 // voter -> delivered vote (voteNone if not yet)
	nDeliv    int
	resolved  bool // phase threshold reached and consumed
}

// newRefBrachaABA creates the component and registers it on the transport.
func newRefBrachaABA(env *Env, opts BrachaOptions) *refBrachaABA {
	a := &refBrachaABA{refDeciding: refDeciding{env: env, onDecide: opts.OnDecide, pruned: isVotePhase}}
	for i := 0; i < opts.Slots; i++ {
		s := &refBrachaSlot{rounds: make(map[uint16]*refBrachaRound)}
		a.slots = append(a.slots, s)
		a.terms = append(a.terms, &s.refTermination)
	}
	a.start()
	env.T.Register(packet.KindABA, a)
	return a
}

// Input starts an instance with an initial estimate.
func (a *refBrachaABA) Input(slot int, v bool) {
	s := a.slots[slot]
	if s.started {
		return
	}
	s.started = true
	s.est = uint8(b2i(v))
	s.round = 1
	a.castVote(slot, s.round, 0, s.est)
}

func (a *refBrachaABA) phase(slot int, round uint16, ph int) *refBrachaPhase {
	s := a.slots[slot]
	rd := s.rounds[round]
	if rd == nil {
		rd = &refBrachaRound{}
		s.rounds[round] = rd
	}
	if rd.phases[ph] == nil {
		n := a.env.N
		p := &refBrachaPhase{
			myVote:    voteNone,
			votes:     refFilled(n, voteNone),
			myEcho:    refFilled(n, voteNone),
			myReady:   refFilled(n, voteNone),
			delivered: refFilled(n, voteNone),
			echoes:    make([]map[int]uint8, n),
			readies:   make([]map[int]uint8, n),
		}
		for i := 0; i < n; i++ {
			p.echoes[i] = make(map[int]uint8)
			p.readies[i] = make(map[int]uint8)
		}
		rd.phases[ph] = p
	}
	return rd.phases[ph]
}

func refFilled(n int, v uint8) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// castVote sets this node's vote for (slot, round, phase) and publishes
// the updated vote-RBC view.
func (a *refBrachaABA) castVote(slot int, round uint16, ph int, v uint8) {
	p := a.phase(slot, round, ph)
	if p.myVote != voteNone {
		return
	}
	p.myVote = v
	a.publish(slot, round, ph)
	a.applyView(slot, round, ph, a.env.Me, a.viewData(slot, round, ph))
}

// viewData serializes my vote-RBC view: [myVote | echo[N] | ready[N]].
func (a *refBrachaABA) viewData(slot int, round uint16, ph int) []byte {
	p := a.phase(slot, round, ph)
	data := make([]byte, 0, 1+2*a.env.N)
	data = append(data, p.myVote)
	data = append(data, p.myEcho...)
	data = append(data, p.myReady...)
	return data
}

func (a *refBrachaABA) publish(slot int, round uint16, ph int) {
	a.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{
			Kind:  packet.KindABA,
			Phase: packet.PhaseVote1 + packet.Phase(ph),
			Slot:  uint8(slot),
			Round: round,
		},
		Data: a.viewData(slot, round, ph),
	})
}

// HandleSection implements core.Handler.
func (a *refBrachaABA) HandleSection(from uint16, sec packet.Section) {
	w := int(from)
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
// embedded per-vote reliable broadcasts.
func (a *refBrachaABA) applyView(slot int, round uint16, ph int, w int, data []byte) {
	s := a.slots[slot]
	n := a.env.N
	if !s.started || s.halted || int(round) > roundCap || len(data) < 1+2*n {
		return
	}
	p := a.phase(slot, round, ph)
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
		if v > voteBot {
			continue
		}
		if _, dup := p.echoes[u][w]; dup {
			continue
		}
		p.echoes[u][w] = v
		if cnt := refCountByte(p.echoes[u], v); cnt >= a.env.Quorum() && p.myReady[u] == voteNone {
			p.myReady[u] = v
			changed = true
		}
	}
	// w's ready vector.
	for u := 0; u < n; u++ {
		v := data[1+n+u]
		if v > voteBot {
			continue
		}
		if _, dup := p.readies[u][w]; dup {
			continue
		}
		p.readies[u][w] = v
		cnt := refCountByte(p.readies[u], v)
		if cnt >= a.env.Weak() && p.myReady[u] == voteNone {
			p.myReady[u] = v
			changed = true
		}
		if cnt >= a.env.Quorum() && p.delivered[u] == voteNone {
			p.delivered[u] = v
			p.nDeliv++
		}
	}
	if changed {
		a.publish(slot, round, ph)
		a.applyView(slot, round, ph, a.env.Me, a.viewData(slot, round, ph))
	}
	a.checkPhase(slot, round, ph)
}

// checkPhase fires when N-f votes of a phase have been vote-RBC-delivered.
func (a *refBrachaABA) checkPhase(slot int, round uint16, ph int) {
	s := a.slots[slot]
	if s.halted || round != s.round {
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

func (a *refBrachaABA) finishRound(slot int, round uint16, counts [3]int) {
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
	if s.halted {
		return
	}
	if int(round)+1 > roundCap {
		panic("component: bracha ABA exceeded round cap (liveness bug)")
	}
	s.round = round + 1
	if s.round >= 2 {
		cutoff := s.round - 1
		a.env.T.ParkWhere(func(k core.IntentKey) bool {
			return k.Kind == packet.KindABA && int(k.Slot) == slot &&
				isVotePhase(k.Phase) && k.Round != 0 && k.Round < cutoff
		})
	}
	a.castVote(slot, s.round, 0, s.est)
}

func refCountByte(m map[int]uint8, v uint8) int {
	n := 0
	for _, x := range m {
		if x == v {
			n++
		}
	}
	return n
}
