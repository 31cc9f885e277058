package protocol

import (
	"repro/internal/component"
	"repro/internal/packet"
)

// Alea implements the Alea-BFT pipeline: dissemination and agreement are
// split into two decoupled halves. Every node VCBC-broadcasts its batch
// into its own priority queue (one queue per sender, slot = sender), and
// a sequential agreement loop runs repropose-able binary agreement over
// the queue heads: round r targets the next queue in the common priority
// order π that has not been accepted yet, each node inputs 1 iff that
// queue's VCBC has delivered locally, and a 1-decision accepts the queue
// (fetching its value by certificate if this node missed the broadcast).
// A 0-decided queue is not discarded — the cyclic order retries it on the
// next pass, which is Alea's reproposal. The epoch decides once 2f+1
// queues are accepted.
//
// The rivalry against HB-ACS is the ABA-instance count: HB runs N
// parallel ABAs every epoch, Alea runs one at a time and stops at 2f+1
// acceptances — in the common case 2f+1 unanimous-1 single-round
// instances, each sharing the ABA/threshcoin machinery and cost model of
// the other engines, so the bench numbers are head-to-head comparable.
type Alea struct {
	env  *component.Env
	vcbc *component.CBC // VCBC: consistent broadcast on KindVCBC, queue i led by node i
	aba  binaryAgreement

	order     []int // π: common cyclic queue priority order
	started   bool  // agreement loop armed (2f+1 VCBC start rule)
	round     int   // next agreement round (= serial ABA slot) to settle
	cursor    int   // cyclic position in π the next round scans from
	running   bool  // this node has input the current round's ABA
	accepted  []bool
	acceptedN int
	outputs   [][]byte
	onDecide  func()
}

// aleaRounds caps the serial agreement schedule. Once every honest
// sender's VCBC has delivered everywhere, each targeted honest queue
// decides 1 unanimously in one round, so real runs settle within a few
// cycles of N; the cap only bounds the ABA slot space (and turns a
// livelock bug into a loud failure instead of a silent stall).
const aleaRounds = 64

// newAlea builds the instance and registers its components.
func newAlea(env *component.Env, opts Options) Instance {
	a := &Alea{
		env:      env,
		order:    commonPermutation("alea-pi", env.Session, env.Epoch, env.N),
		accepted: make([]bool, env.N),
		onDecide: opts.OnDecide,
	}
	a.vcbc = component.NewCBC(env, component.CBCOptions{
		Kind:      packet.KindVCBC,
		Slots:     env.N,
		OnDeliver: a.onVCBCDeliver,
	})
	// Serial ABA, one slot per agreement round: instances execute one at a
	// time, so coins are per-instance (the Dumbo serial rule — no
	// cross-instance sharing to leak future coins).
	a.aba = newABA(env, aleaRounds, opts.Coin, false, a.onABADecide)
	return a
}

var _ Instance = (*Alea)(nil)

// Start implements Instance: push this node's batch onto its queue.
func (a *Alea) Start(proposal []byte) { a.vcbc.Propose(a.env.Me, proposal) }

// Done implements Instance.
func (a *Alea) Done() bool { return a.outputs != nil }

// Outputs implements Instance.
func (a *Alea) Outputs() [][]byte { return a.outputs }

// onVCBCDeliver applies the wireless start rule (the ABA-start analogue
// of Sec. V-A): the agreement loop arms once 2f+1 queue heads have
// delivered locally, so the fastest 2f+1 broadcasts are favored and a
// lone early sender cannot steer the schedule.
func (a *Alea) onVCBCDeliver(int, []byte, []byte) {
	if !a.started && a.vcbc.DeliveredCount() >= a.env.Quorum() {
		a.started = true
	}
	a.pump()
	a.maybeFinish()
}

// target returns the queue the current round operates on and its position
// in the cyclic scan: the first queue at or after cursor in π order that
// has not been accepted. The mapping is a pure function of π and the
// prior rounds' decisions, so every node attributes round r to the same
// queue.
func (a *Alea) target() (q, pos int) {
	n := a.env.N
	for i := 0; i < n; i++ {
		pos = a.cursor + i
		q = a.order[pos%n]
		if !a.accepted[q] {
			return q, pos
		}
	}
	panic("protocol: alea agreement loop ran past termination")
}

// pump advances the serial schedule: consume already-settled rounds in
// order (peers' DECIDED claims may arrive long before this node runs the
// round itself — the late-join/recovery case), then input the current
// round's ABA if the loop is armed. Decisions are attributed strictly in
// round order, which keeps the round→queue mapping common.
func (a *Alea) pump() {
	for a.outputs == nil && a.acceptedN < a.env.Quorum() {
		if a.round >= aleaRounds {
			panic("protocol: alea agreement exceeded the round cap")
		}
		q, pos := a.target()
		if dec := a.aba.Decided(a.round); dec != nil {
			a.running = false
			a.round++
			a.cursor = pos + 1
			if *dec && !a.accepted[q] {
				a.accepted[q] = true
				a.acceptedN++
				if !a.vcbc.Delivered(q) {
					// VCBC has no totality: pull the accepted head by its
					// certificate.
					a.vcbc.Fetch(q)
				}
			}
			continue
		}
		if a.running || !a.started {
			return
		}
		a.running = true
		a.aba.Input(a.round, a.vcbc.Delivered(q))
		return
	}
	a.maybeFinish()
}

func (a *Alea) onABADecide(int, bool) {
	// Attribution happens inside pump via Decided(a.round): a decision for
	// the current round is consumed now; claims for rounds this node has
	// not reached yet are consumed when the serial schedule gets there.
	a.pump()
}

// maybeFinish assembles the epoch output once 2f+1 queues are accepted
// and every accepted head has (by broadcast or certificate fetch)
// delivered locally.
func (a *Alea) maybeFinish() {
	if a.outputs != nil || a.acceptedN < a.env.Quorum() {
		return
	}
	for q := 0; q < a.env.N; q++ {
		if a.accepted[q] && !a.vcbc.Delivered(q) {
			a.vcbc.Fetch(q) // idempotent re-request
			return
		}
	}
	outputs := make([][]byte, a.env.N)
	for q := range outputs {
		if a.accepted[q] {
			outputs[q] = a.vcbc.Value(q)
		}
	}
	a.outputs = outputs
	if a.onDecide != nil {
		a.onDecide()
	}
}
