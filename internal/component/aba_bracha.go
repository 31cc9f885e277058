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
	// recs is the slab the phase records are carved from, brachaChunk
	// records to a chunk, made as the last one fills; made counts the
	// records carved. A record never moves: the transport keeps its view as
	// the Data of its intent, parked ones of rounds left behind included.
	recs [][]uint8
	made uint16
	size int // a record's bytes, brachaRecord(N)
}

const (
	voteZero = 0
	voteOne  = 1
	voteBot  = 2
)

// brachaChunk is the number of phase records a chunk of the slab holds.
// An instance that decides in its first round uses four — the round's
// three phases and the next round's first vote — so a chunk holds two
// such instances, and at N = 4 its 416 B are a size class of their own.
const brachaChunk = 8

// brachaRounds is the length of an instance's rounds table when its
// record is made at Input: rounds 0 to 2, enough for an instance that
// decides in round 1 and casts round 2's first vote. A peer that mentions
// a later round grows it.
const brachaRounds = 3

type brachaSlot struct {
	round uint16
	est   uint8 // voteZero or voteOne
	// rounds is indexed by round number and grows to the highest round
	// mentioned; applyView caps what a peer can mention at roundCap. It
	// holds each phase's record, by number + 1: 0 until the phase is made.
	// A uint16 holds every number: an agreement makes at most one record
	// per instance (256 at most: a slot travels in a byte), round (0 to
	// roundCap) and phase, 49 920 in all. Until it grows, rounds is early,
	// in the instance's own record (early comes first: the record is then
	// 48 B).
	early  [brachaRounds][3]uint16
	rounds [][3]uint16
}

// brachaPhase is one voting phase: N embedded vote-RBCs, one per voter.
// Its record is N+2N² bits and 11N+3 bytes of the slab, read through the
// methods below: the count of votes delivered, whether the phase is
// resolved, this node's view [myVote | echo[N] | ready[N]] as it was last
// published, three voter vectors (voteNone until set) and two 3N count
// tables, then the seen-bits — whether each voter's vote, and each
// voter's echo and ready from each echoer, has come — of which the first
// to come is the one that counts. Counts are bytes: node ids and slots
// travel in one byte, so N fits.
type brachaPhase struct {
	n int
	b []uint8
}

// brachaRecord is the bytes of a phase record for n voters.
func brachaRecord(n int) int { return 11*n + 3 + (n+2*n*n+7)/8 }

func (p brachaPhase) span(at, size int) []uint8 { return p.b[at : at+size : at+size] }

// nDeliv is the number of votes delivered; resolved says the phase's
// threshold was reached and consumed.
func (p brachaPhase) nDeliv() *uint8   { return &p.b[0] }
func (p brachaPhase) resolved() *uint8 { return &p.b[1] }

// view is this node's published view; its first byte is its own vote,
// voteNone until cast.
func (p brachaPhase) view() []uint8 { return p.span(2, 1+2*p.n) }

// myEcho is voter -> value I echoed (voteNone if none); myReady follows it.
func (p brachaPhase) myEcho() []uint8  { return p.span(3+2*p.n, p.n) }
func (p brachaPhase) myReady() []uint8 { return p.span(3+3*p.n, p.n) }

// delivered is voter -> delivered vote (voteNone if not yet).
func (p brachaPhase) delivered() []uint8 { return p.span(3+4*p.n, p.n) }

// echoCnt is voter*3 + value -> echoers that echoed it; readyCnt too.
func (p brachaPhase) echoCnt() []uint8  { return p.span(3+5*p.n, 3*p.n) }
func (p brachaPhase) readyCnt() []uint8 { return p.span(3+8*p.n, 3*p.n) }

// The seen-bits: bit w is voter w's vote, N + u*N + w echoer w's echo for
// voter u, and N + N² + u*N + w its ready.
func (p brachaPhase) seenEcho(u, w int) int  { return p.n + u*p.n + w }
func (p brachaPhase) seenReady(u, w int) int { return p.n + p.n*p.n + u*p.n + w }

// first sets seen-bit i and reports whether it was clear.
func (p brachaPhase) first(i int) bool {
	b, m := &p.b[3+11*p.n+int(uint(i)/8)], uint8(1)<<(uint(i)%8)
	if *b&m != 0 {
		return false
	}
	*b |= m
	return true
}

// BrachaOptions configures the component.
type BrachaOptions struct {
	Slots    int
	OnDecide func(slot int, value bool)
}

// NewBrachaABA creates the component and registers it on the transport.
func NewBrachaABA(env *Env, opts BrachaOptions) *BrachaABA {
	a := &BrachaABA{deciding: deciding{env: env, onDecide: opts.OnDecide, pruned: isVotePhase}, size: brachaRecord(env.N)}
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
	s := &brachaSlot{est: uint8(b2i(v)), round: 1}
	s.rounds = s.early[:]
	a.slots[slot] = s
	a.castVote(slot, 1, 0, uint8(b2i(v)))
}

func (a *BrachaABA) phase(slot int, round uint16, ph int) brachaPhase {
	s := a.slots[slot]
	for len(s.rounds) <= int(round) {
		s.rounds = append(s.rounds, [3]uint16{})
	}
	ref := &s.rounds[round][ph]
	if *ref == 0 {
		*ref = a.carve()
	}
	return a.record(*ref)
}

// carve makes a phase record, voteNone where a vote is unset, and returns
// its number + 1.
func (a *BrachaABA) carve() uint16 {
	if int(a.made)%brachaChunk == 0 {
		a.recs = append(a.recs, make([]uint8, brachaChunk*a.size))
	}
	a.made++
	p := a.record(a.made)
	p.view()[0] = voteNone
	unset := p.span(3+2*p.n, 3*p.n) // myEcho, myReady, delivered
	for i := range unset {
		unset[i] = voteNone
	}
	return a.made
}

// record returns the record numbered ref - 1.
func (a *BrachaABA) record(ref uint16) brachaPhase {
	i := uint(ref - 1)
	at := int(i%brachaChunk) * a.size
	return brachaPhase{n: a.env.N, b: a.recs[i/brachaChunk][at : at+a.size : at+a.size]}
}

// castVote sets this node's vote for (slot, round, phase), publishes the
// updated vote-RBC view and applies it locally.
func (a *BrachaABA) castVote(slot int, round uint16, ph int, v uint8) {
	p := a.phase(slot, round, ph)
	if p.view()[0] != voteNone {
		return
	}
	p.view()[0] = v
	a.applyView(slot, round, ph, a.env.Me, a.publish(slot, round, ph, p))
}

// publish writes my vote-RBC view [myVote | echo[N] | ready[N]] into the
// phase's record, puts it on the air and returns it. The transport keeps
// the record's own bytes as the intent's Data until the key's next
// Update, so every write to the view — the vote castVote sets, the vectors
// copied here — is followed by an Update of its key before anything else
// runs. (With an interceptor installed, which may drop or hold an update,
// the transport copies what it is handed.)
func (a *BrachaABA) publish(slot int, round uint16, ph int, p brachaPhase) []byte {
	view := p.view()
	copy(view[1:], p.myEcho())
	copy(view[1+p.n:], p.myReady())
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
// ready for a voter is the one that counts. data may be this node's own
// view, the record's bytes: applyView reads all of it before it
// republishes, which rewrites them.
func (a *BrachaABA) applyView(slot int, round uint16, ph int, w int, data []byte) {
	n := a.env.N
	if a.slots[slot] == nil || a.halted.Get(slot) || int(round) > roundCap || len(data) < 1+2*n {
		return
	}
	p := a.phase(slot, round, ph)
	myEcho, myReady, delivered := p.myEcho(), p.myReady(), p.delivered()
	quorum, weak := a.env.Quorum(), a.env.Weak()
	changed := false

	// w's own vote: treat as the INITIAL of w's vote-RBC.
	if v := data[0]; v <= voteBot && p.first(w) {
		if myEcho[w] == voteNone {
			myEcho[w] = v
			changed = true
		}
	}
	// w's echo vector.
	echoCnt := p.echoCnt()
	for u := 0; u < n; u++ {
		v := data[1+u]
		if v > voteBot || !p.first(p.seenEcho(u, w)) {
			continue
		}
		echoCnt[u*3+int(v)]++
		if int(echoCnt[u*3+int(v)]) >= quorum && myReady[u] == voteNone {
			myReady[u] = v
			changed = true
		}
	}
	// w's ready vector.
	readyCnt := p.readyCnt()
	for u := 0; u < n; u++ {
		v := data[1+n+u]
		if v > voteBot || !p.first(p.seenReady(u, w)) {
			continue
		}
		readyCnt[u*3+int(v)]++
		cnt := int(readyCnt[u*3+int(v)])
		if cnt >= weak && myReady[u] == voteNone {
			myReady[u] = v
			changed = true
		}
		if cnt >= quorum && delivered[u] == voteNone {
			delivered[u] = v
			*p.nDeliv()++
		}
	}
	if changed {
		a.applyView(slot, round, ph, a.env.Me, a.publish(slot, round, ph, p))
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
	if *p.resolved() != 0 || p.view()[0] == voteNone || int(*p.nDeliv()) < a.env.N-a.env.F {
		return
	}
	*p.resolved() = 1
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
