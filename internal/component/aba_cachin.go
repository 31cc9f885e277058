package component

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// CachinABA runs k parallel (or serial) instances of the shared-coin
// binary-agreement protocol the paper calls "Cachin's ABA" (the
// BVAL/AUX/SHARE round structure of Fig. 1d, packets per Fig. 6b).
//
// Wireless adaptations from Sec. V-A:
//   - batched parallel instances share one coin per round (SharedCoin);
//   - serial execution releases coin shares only for the active instance,
//     so Byzantine nodes cannot learn future coins early.
//
// Only every third round draws the threshold coin; the others use a fixed
// one (fixedCoin).
type CachinABA[S, V any] struct {
	deciding
	coin       collector[[]byte, S, V]
	bit        func(V) bool
	sharedCoin bool
	// slots is by instance, nil until its Input: a slot not started takes
	// no part in a round, so an agreement of many serial instances keeps
	// records only for those it reached.
	slots []*abaSlot
	// coins holds every coin mentioned, the shared coin of a round
	// (SharedCoin) and a slot's own alike.
	coins map[coinKey]*coinState[S, V]
}

type coinKey struct {
	slot  uint8 // sharedSlot when the coin is shared across instances
	round uint16
}

// id is the coin's identity in the share collector; coinOfID inverts it.
func (k coinKey) id() int { return int(k.slot)<<16 | int(k.round) }

func coinOfID(id int) coinKey { return coinKey{slot: uint8(id >> 16), round: uint16(id)} }

// coinState is one coin: the tally of its shares over the coin's name,
// and who is waiting for its value.
type coinState[S, V any] struct {
	tally[[]byte, S, V]
	released bool
	waiting  []func(bool)
}

type abaSlot struct {
	round uint16
	est   bool
	// rounds is indexed by round number and grows to the highest round
	// mentioned (nil: not yet); what a peer can mention is capped at
	// roundCap.
	rounds []*abaRound
}

type abaRound struct {
	bvalSent [2]bool
	// recv is what each peer has sent: bit v set once its BVAL(v) arrived,
	// and from bit 2 up its first AUX vote — 0 none yet, else 1 + the value.
	recv      []uint8
	nBval     [2]int // peers whose BVAL(v) arrived
	binValues [2]bool
	auxSent   bool
	auxVal    bool
	valsReady bool
	advanced  bool
}

// CachinOptions configures the component.
type CachinOptions struct {
	Slots      int
	SharedCoin bool // one coin per round across all instances (batched mode)
	OnDecide   func(slot int, value bool)
}

// NewCachinABA creates the component, drawing coin, and registers it on
// the transport.
func NewCachinABA[S, V any](env *Env, coin Coin[S, V], opts CachinOptions) *CachinABA[S, V] {
	a := &CachinABA[S, V]{
		deciding:   deciding{env: env, onDecide: opts.OnDecide},
		bit:        coin.bit,
		sharedCoin: opts.SharedCoin,
		coins:      make(map[coinKey]*coinState[S, V]),
	}
	a.pruned = func(p packet.Phase) bool {
		return p == packet.PhaseBval || p == packet.PhaseAux || (p == packet.PhaseShare && !a.sharedCoin)
	}
	a.coin = collector[[]byte, S, V]{scheme: coin.scheme, env: env, combined: a.coinCombined}
	a.slots = make([]*abaSlot, opts.Slots)
	a.start(opts.Slots)
	env.T.Register(packet.KindABA, a)
	return a
}

// Input starts an instance with an initial estimate. The wireless rule of
// Sec. V-A (all parallel instances start simultaneously once 2f+1 RBCs
// finish) is enforced by the protocol layer calling Input for all slots in
// the same event.
func (a *CachinABA[S, V]) Input(slot int, v bool) {
	if a.slots[slot] != nil {
		return
	}
	a.slots[slot] = &abaSlot{est: v, round: 1}
	a.startRound(slot)
}

// round returns the record of round r of a slot, creating it on first
// mention. Callers have checked r against roundCap.
func (a *CachinABA[S, V]) round(slot int, r uint16) *abaRound {
	s := a.slots[slot]
	for len(s.rounds) <= int(r) {
		s.rounds = append(s.rounds, nil)
	}
	if s.rounds[r] == nil {
		s.rounds[r] = &abaRound{recv: make([]uint8, a.env.N)}
	}
	return s.rounds[r]
}

func (a *CachinABA[S, V]) startRound(slot int) {
	s := a.slots[slot]
	if a.halted.Get(slot) {
		return
	}
	if int(s.round) > roundCap {
		panic("component: cachin ABA exceeded round cap (liveness bug)")
	}
	a.sendBval(slot, s.round, s.est)
	// Peers racing ahead may have completed this round's whole exchange
	// while this node was still in the previous one. Those early bvals and
	// AUX votes were recorded but their round == s.round sends were
	// skipped, and nothing else replays them — without this, a node
	// entering a round where the quorums already formed never emits its AUX
	// vote and the exchange can wedge one vote short of N-f.
	rd := a.round(slot, s.round)
	for _, v := range []bool{false, true} {
		if !rd.bvalSent[b2i(v)] && rd.nBval[b2i(v)] >= a.env.Weak() {
			a.sendBval(slot, s.round, v)
		}
		if rd.binValues[b2i(v)] && !rd.auxSent {
			a.sendAux(slot, s.round, v)
		}
	}
	a.checkRound(slot, s.round)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

func (a *CachinABA[S, V]) sendBval(slot int, round uint16, v bool) {
	rd := a.round(slot, round)
	if rd.bvalSent[b2i(v)] {
		return
	}
	rd.bvalSent[b2i(v)] = true
	a.publishBval(slot, round, rd)
	a.applyBval(slot, round, a.env.Me, v)
}

// publishBval puts the BVALs this node has sent in a round on the air.
func (a *CachinABA[S, V]) publishBval(slot int, round uint16, rd *abaRound) {
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

func (a *CachinABA[S, V]) sendAux(slot int, round uint16, v bool) {
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
func (a *CachinABA[S, V]) publishAux(slot int, round uint16, rd *abaRound) {
	a.env.T.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux, Slot: uint8(slot), Round: round},
		Data:      []byte{uint8(b2i(rd.auxVal))},
	})
}

// HandleSection implements core.Handler.
func (a *CachinABA[S, V]) HandleSection(from uint16, sec packet.Section) {
	w, ok := a.env.peer(from)
	if !ok {
		return
	}
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

func (a *CachinABA[S, V]) applyBval(slot int, round uint16, w int, v bool) {
	s := a.slots[slot]
	if s == nil || a.halted.Get(slot) || int(round) > roundCap {
		return
	}
	rd := a.round(slot, round)
	bit := uint8(1) << b2i(v)
	if rd.recv[w]&bit != 0 {
		return
	}
	rd.recv[w] |= bit
	rd.nBval[b2i(v)]++
	n := rd.nBval[b2i(v)]
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

func (a *CachinABA[S, V]) applyAux(slot int, round uint16, w int, v bool) {
	s := a.slots[slot]
	if s == nil || a.halted.Get(slot) || int(round) > roundCap {
		return
	}
	rd := a.round(slot, round)
	if rd.recv[w]>>2 != 0 {
		return
	}
	rd.recv[w] |= uint8(1+b2i(v)) << 2
	a.checkRound(slot, round)
}

// checkRound fires when N-f AUX votes carrying bin_values have arrived:
// in a fixed-coin round, advance at once; else release the coin share,
// and once the coin is known, advance.
func (a *CachinABA[S, V]) checkRound(slot int, round uint16) {
	s := a.slots[slot]
	if round != s.round || s.rounds[round].advanced {
		return
	}
	rd := s.rounds[round]
	count := 0
	vals := [2]bool{}
	for _, r := range rd.recv {
		if aux := r >> 2; aux != 0 && rd.binValues[aux-1] {
			count++
			vals[aux-1] = true
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

// fixedCoin is the coin schedule: a round ≡ 1 (mod 3) has coin 1, a round
// ≡ 2 coin 0, and only a round ≡ 0 draws the threshold coin (fixed false).
// A fixed coin is common, which is all safety asks of it — a node that
// decides v in round r leaves every honest estimate at v. Termination
// rests on the threshold rounds, which an adversary cannot predict; when
// the honest inputs agree, round 1 or 2 decides without one.
func fixedCoin(round uint16) (coin, fixed bool) {
	switch round % 3 {
	case 1:
		return true, true
	case 2:
		return false, true
	}
	return false, false
}

// coinKeyFor returns the coin identity for (slot, round) under the
// configured sharing mode.
func (a *CachinABA[S, V]) coinKeyFor(slot int, round uint16) coinKey {
	if a.sharedCoin {
		return coinKey{slot: sharedSlot, round: round}
	}
	return coinKey{slot: uint8(slot), round: round}
}

// shareIntent is where this node's share of coin k goes on the air.
func (a *CachinABA[S, V]) shareIntent(k coinKey) core.IntentKey {
	return core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseShare, Slot: k.slot, Sub: uint8(a.env.Me), Round: k.round}
}

// coinState returns coin k's state, creating it on first mention. The
// caller has checked k's slot and round are in range.
func (a *CachinABA[S, V]) coinState(k coinKey) *coinState[S, V] {
	cs := a.coins[k]
	if cs == nil {
		cs = &coinState[S, V]{}
		cs.subject, cs.open = coinName(a.env.Session, a.env.Epoch, k.slot, k.round), true
		a.coins[k] = cs
	}
	return cs
}

func (a *CachinABA[S, V]) releaseCoinShare(slot int, round uint16) {
	k := a.coinKeyFor(slot, round)
	cs := a.coinState(k)
	if cs.released {
		return
	}
	cs.released = true
	a.coin.contribute(&cs.tally, k.id(), a.shareIntent(k))
}

func (a *CachinABA[S, V]) handleCoinShare(slot uint8, round uint16, w int, flags uint8, data []byte) {
	if a.sharedCoin != (slot == sharedSlot) {
		return // batched mode uses the shared coin and nothing else does
	}
	if (!a.sharedCoin && int(slot) >= len(a.slots)) || int(round) > roundCap {
		return // no such instance, or a round no honest node reaches
	}
	if _, fixed := fixedCoin(round); fixed {
		a.env.Reject() // no honest node draws a fixed round's coin: drop it unread
		return
	}
	k := coinKey{slot: slot, round: round}
	a.coin.offer(&a.coinState(k).tally, k.id(), w, flags, data)
}

func (a *CachinABA[S, V]) coinCombined(id int, v V) {
	cs, coin := a.coins[coinOfID(id)], a.bit(v)
	for _, fn := range cs.waiting {
		fn(coin)
	}
	cs.waiting = nil
}

func (a *CachinABA[S, V]) withCoin(slot int, round uint16, fn func(bool)) {
	cs := a.coinState(a.coinKeyFor(slot, round))
	if cs.done {
		fn(a.bit(cs.value))
		return
	}
	cs.waiting = append(cs.waiting, fn)
}

// advance applies the round decision rule and moves to the next round.
func (a *CachinABA[S, V]) advance(slot int, round uint16, vals [2]bool, coin bool) {
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
// that the DECIDED gadget carries it over the line. A peer that lost its
// state — a Byzantine one, since a crash keeps it: it restarts the
// instance at round 1, and if no honest node decided the slot the gadget
// cannot carry it —
// asks for a parked round by sending its own entries of it, and this
// node's transport answers with this node's votes of the round and the round's
// coin share, or the certificate that took the share's place (settle): the
// peer climbs the schedule the protocol's own way, with no estimate
// injected.
func (a *CachinABA[S, V]) pruneRounds(slot int, current uint16) {
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
				for i, s := range a.slots {
					if s != nil && !a.halted.Get(i) && s.round <= k.Round {
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
