package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// This file is an earlier commit's map-based CachinABA, kept (types
// renamed ref*) as the oracle of the reference-model tests in
// aba_ref_test.go: rounds in a map, BVAL and AUX receipts in per-peer maps
// counted by len and by iteration, coins in a map by coinKey.id. It shares
// the coin's share collector with the component. Do not modernise it. Its
// round-entry replay (startRound) has since become unconditional, in the
// component and here alike, and so has the coin schedule (fixedCoin):
// rounds 1 and 2 of every three use a fixed coin; and both park the rounds
// they prune (core.Transport.ParkWhere), which the transport serves to a
// peer that lost its state, in place of the replay they once kept.

// refCachinABA runs k parallel (or serial) instances of the shared-coin
// binary-agreement protocol the paper calls "Cachin's ABA" (the
// BVAL/AUX/SHARE round structure of Fig. 1d, packets per Fig. 6b).
//
// Wireless adaptations from Sec. V-A:
//   - batched parallel instances share one coin per round (SharedCoin);
//   - serial execution releases coin shares only for the active instance,
//     so Byzantine nodes cannot learn future coins early.
type refCachinABA[S, V any] struct {
	refDeciding
	coin       collector[[]byte, S, V]
	bit        func(V) bool
	sharedCoin bool
	slots      []*refAbaSlot
	coins      map[int]*coinState[S, V] // by coinKey.id
}

type refAbaSlot struct {
	refTermination
	started bool
	round   uint16
	est     bool
	rounds  map[uint16]*refAbaRound
}

type refAbaRound struct {
	bvalSent  [2]bool
	bvalRecv  [2]map[int]bool
	binValues [2]bool
	auxSent   bool
	auxVal    bool
	auxRecv   map[int]*bool
	valsReady bool
	advanced  bool
}

// newRefCachinABA creates the component and registers it on the transport.
func newRefCachinABA[S, V any](env *Env, coin Coin[S, V], opts CachinOptions) *refCachinABA[S, V] {
	a := &refCachinABA[S, V]{
		refDeciding: refDeciding{env: env, onDecide: opts.OnDecide},
		bit:         coin.bit,
		sharedCoin:  opts.SharedCoin,
		coins:       make(map[int]*coinState[S, V]),
	}
	a.pruned = func(p packet.Phase) bool {
		return p == packet.PhaseBval || p == packet.PhaseAux || (p == packet.PhaseShare && !a.sharedCoin)
	}
	a.coin = collector[[]byte, S, V]{scheme: coin.scheme, env: env, combined: a.coinCombined}
	for i := 0; i < opts.Slots; i++ {
		s := &refAbaSlot{rounds: make(map[uint16]*refAbaRound)}
		a.slots = append(a.slots, s)
		a.terms = append(a.terms, &s.refTermination)
	}
	a.start()
	env.T.Register(packet.KindABA, a)
	return a
}

// Input starts an instance with an initial estimate. The wireless rule of
// Sec. V-A (all parallel instances start simultaneously once 2f+1 RBCs
// finish) is enforced by the protocol layer calling Input for all slots in
// the same event.
func (a *refCachinABA[S, V]) Input(slot int, v bool) {
	s := a.slots[slot]
	if s.started {
		return
	}
	s.started = true
	s.est = v
	s.round = 1
	a.startRound(slot)
}

func (a *refCachinABA[S, V]) round(slot int, r uint16) *refAbaRound {
	s := a.slots[slot]
	rd := s.rounds[r]
	if rd == nil {
		rd = &refAbaRound{
			bvalRecv: [2]map[int]bool{{}, {}},
			auxRecv:  make(map[int]*bool),
		}
		s.rounds[r] = rd
	}
	return rd
}

func (a *refCachinABA[S, V]) startRound(slot int) {
	s := a.slots[slot]
	if s.halted {
		return
	}
	if int(s.round) > roundCap {
		panic("component: cachin ABA exceeded round cap (liveness bug)")
	}
	a.sendBval(slot, s.round, s.est)
	// Catch-up: peers racing ahead may have completed this
	// round's whole exchange while this node was still in the previous
	// one. Those early bvals and AUX votes were recorded but their
	// round == s.round sends were skipped, and nothing else replays them —
	// without this, a node entering a round where the quorums already
	// formed never emits its AUX vote and the exchange can wedge one vote
	// short of N-f.
	rd := a.round(slot, s.round)
	for _, v := range []bool{false, true} {
		if !rd.bvalSent[b2i(v)] && len(rd.bvalRecv[b2i(v)]) >= a.env.Weak() {
			a.sendBval(slot, s.round, v)
		}
		if rd.binValues[b2i(v)] && !rd.auxSent {
			a.sendAux(slot, s.round, v)
		}
	}
	a.checkRound(slot, s.round)
}

func (a *refCachinABA[S, V]) sendBval(slot int, round uint16, v bool) {
	rd := a.round(slot, round)
	if rd.bvalSent[b2i(v)] {
		return
	}
	rd.bvalSent[b2i(v)] = true
	a.publishBval(slot, round, rd)
	a.applyBval(slot, round, a.env.Me, v)
}

// publishBval puts the BVALs this node has sent in a round on the air.
func (a *refCachinABA[S, V]) publishBval(slot int, round uint16, rd *refAbaRound) {
	var bits uint8
	if rd.bvalSent[0] {
		bits |= 1
	}
	if rd.bvalSent[1] {
		bits |= 2
	}
	a.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: uint8(slot), Round: round},
		Data:      []byte{bits},
	})
}

func (a *refCachinABA[S, V]) sendAux(slot int, round uint16, v bool) {
	rd := a.round(slot, round)
	if rd.auxSent {
		return
	}
	rd.auxSent = true
	rd.auxVal = v
	a.publishAux(slot, round, rd)
	a.applyAux(slot, round, a.env.Me, v)
}

// publishAux puts the AUX vote this node cast in a round on the air.
func (a *refCachinABA[S, V]) publishAux(slot int, round uint16, rd *refAbaRound) {
	a.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux, Slot: uint8(slot), Round: round},
		Data:      []byte{uint8(b2i(rd.auxVal))},
	})
}

// HandleSection implements core.Handler.
func (a *refCachinABA[S, V]) HandleSection(from uint16, sec packet.Section) {
	w := int(from)
	switch sec.Phase {
	case packet.PhaseBval:
		for _, e := range sec.Entries {
			if int(e.Slot) >= len(a.slots) || len(e.Data) < 1 {
				continue
			}
			if e.Data[0]&1 != 0 {
				a.applyBval(int(e.Slot), e.Round, w, false)
			}
			if e.Data[0]&2 != 0 {
				a.applyBval(int(e.Slot), e.Round, w, true)
			}
		}
	case packet.PhaseAux:
		for _, e := range sec.Entries {
			if int(e.Slot) >= len(a.slots) || len(e.Data) < 1 {
				continue
			}
			a.applyAux(int(e.Slot), e.Round, w, e.Data[0] == 1)
		}
	case packet.PhaseShare:
		for _, e := range sec.Entries {
			a.handleCoinShare(e.Slot, e.Round, w, e.Flags, e.Data)
		}
	case packet.PhaseDecided:
		a.handleDecided(w, sec)
	}
}

func (a *refCachinABA[S, V]) applyBval(slot int, round uint16, w int, v bool) {
	s := a.slots[slot]
	if !s.started || s.halted || int(round) > roundCap {
		return
	}
	rd := a.round(slot, round)
	if rd.bvalRecv[b2i(v)][w] {
		return
	}
	rd.bvalRecv[b2i(v)][w] = true
	n := len(rd.bvalRecv[b2i(v)])
	if n >= a.env.Weak() && !rd.bvalSent[b2i(v)] && round == s.round {
		a.sendBval(slot, round, v) // BVAL amplification
	}
	if n >= a.env.Quorum() && !rd.binValues[b2i(v)] {
		rd.binValues[b2i(v)] = true
		if !rd.auxSent && round == s.round {
			a.sendAux(slot, round, v)
		}
		a.checkRound(slot, round)
	}
}

func (a *refCachinABA[S, V]) applyAux(slot int, round uint16, w int, v bool) {
	s := a.slots[slot]
	if !s.started || s.halted || int(round) > roundCap {
		return
	}
	rd := a.round(slot, round)
	if _, seen := rd.auxRecv[w]; seen {
		return
	}
	val := v
	rd.auxRecv[w] = &val
	a.checkRound(slot, round)
}

// checkRound fires when N-f AUX votes carrying bin_values have arrived:
// in a fixed-coin round, advance at once; else release the coin share,
// and once the coin is known, advance.
func (a *refCachinABA[S, V]) checkRound(slot int, round uint16) {
	s := a.slots[slot]
	if round != s.round || s.rounds[round].advanced {
		return
	}
	rd := s.rounds[round]
	count := 0
	vals := [2]bool{}
	for _, v := range rd.auxRecv {
		if rd.binValues[b2i(*v)] {
			count++
			vals[b2i(*v)] = true
		}
	}
	if count < a.env.N-a.env.F {
		return
	}
	rd.valsReady = true
	if coin, fixed := fixedCoin(round); fixed {
		a.advance(slot, round, vals, coin)
		return
	}
	a.releaseCoinShare(slot, round)
	a.withCoin(slot, round, func(coin bool) {
		a.advance(slot, round, vals, coin)
	})
}

// coinKeyFor returns the coin identity for (slot, round) under the
// configured sharing mode.
func (a *refCachinABA[S, V]) coinKeyFor(slot int, round uint16) coinKey {
	if a.sharedCoin {
		return coinKey{slot: sharedSlot, round: round}
	}
	return coinKey{slot: uint8(slot), round: round}
}

// shareIntent is where this node's share of coin k goes on the air.
func (a *refCachinABA[S, V]) shareIntent(k coinKey) core.IntentKey {
	return core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseShare, Slot: k.slot, Sub: uint8(a.env.Me), Round: k.round}
}

func (a *refCachinABA[S, V]) coinState(k coinKey) *coinState[S, V] {
	cs := a.coins[k.id()]
	if cs == nil {
		cs = &coinState[S, V]{}
		cs.subject, cs.open = coinName(a.env.Session, a.env.Epoch, k.slot, k.round), true
		a.coins[k.id()] = cs
	}
	return cs
}

func (a *refCachinABA[S, V]) releaseCoinShare(slot int, round uint16) {
	k := a.coinKeyFor(slot, round)
	cs := a.coinState(k)
	if cs.released {
		return
	}
	cs.released = true
	a.coin.contribute(&cs.tally, k.id(), a.shareIntent(k))
}

func (a *refCachinABA[S, V]) handleCoinShare(slot uint8, round uint16, w int, flags uint8, data []byte) {
	if a.sharedCoin != (slot == sharedSlot) {
		return // batched mode uses the shared coin and nothing else does
	}
	if _, fixed := fixedCoin(round); fixed {
		a.env.Reject()
		return
	}
	k := coinKey{slot: slot, round: round}
	a.coin.offer(&a.coinState(k).tally, k.id(), w, flags, data)
}

func (a *refCachinABA[S, V]) coinCombined(id int, v V) {
	cs := a.coins[id]
	for _, fn := range cs.waiting {
		fn(a.bit(v))
	}
	cs.waiting = nil
}

func (a *refCachinABA[S, V]) withCoin(slot int, round uint16, fn func(bool)) {
	cs := a.coinState(a.coinKeyFor(slot, round))
	if cs.done {
		fn(a.bit(cs.value))
		return
	}
	cs.waiting = append(cs.waiting, fn)
}

// advance applies the round decision rule and moves to the next round.
func (a *refCachinABA[S, V]) advance(slot int, round uint16, vals [2]bool, coin bool) {
	s := a.slots[slot]
	if round != s.round {
		return
	}
	rd := s.rounds[round]
	if rd.advanced || !rd.valsReady {
		return
	}
	rd.advanced = true
	switch {
	case vals[0] != vals[1]: // single value v
		v := vals[1]
		s.est = v
		if v == coin {
			a.decide(slot, v)
		}
	default: // both values present
		s.est = coin
	}
	s.round++
	a.pruneRounds(slot, s.round)
	a.startRound(slot)
}

// pruneRounds parks outbound state older than the previous round: a
// lagging honest peer can be at most one coin exchange behind, and beyond
// that the DECIDED gadget carries it over the line.
func (a *refCachinABA[S, V]) pruneRounds(slot int, current uint16) {
	if current < 2 {
		return
	}
	cutoff := current - 1
	a.env.T.ParkWhere(func(k core.IntentKey) bool {
		if k.Kind != packet.KindABA || k.Round >= cutoff || k.Round == 0 {
			return false
		}
		switch k.Phase {
		case packet.PhaseBval, packet.PhaseAux:
			return int(k.Slot) == slot
		case packet.PhaseShare:
			// Shared-coin shares are pruned only when every slot has left
			// the round; per-slot coins prune with their slot.
			if a.sharedCoin {
				for _, s := range a.slots {
					if s.started && !s.halted && s.round <= k.Round {
						return false
					}
				}
				return true
			}
			return int(k.Slot) == slot
		}
		return false
	})
}
