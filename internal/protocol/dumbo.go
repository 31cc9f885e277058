package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"

	"repro/internal/component"
	"repro/internal/packet"
)

// Dumbo implements Dumbo2 (Fig. 7b): N parallel PRBC instances produce
// provable deliveries; two sets of N parallel CBC instances (CBC-value
// carrying 2f+1-proof vectors, CBC-commit carrying small index sets)
// synchronize the completed-PRBC views; a common string π orders the
// candidates; serial ABA instances then run until one accepts, and the
// accepted candidate's proof vector defines the output set.
type Dumbo struct {
	env *component.Env

	prbc      *component.PRBC
	cbcValue  *component.CBC
	cbcCommit *component.CBC
	aba       binaryAgreement

	proofs        map[int][]byte // slot -> PRBC proof
	valueSent     bool
	commitSent    bool
	abaSeq        []int // π: candidate order
	abaIdx        int   // next candidate to run
	abaRunning    bool
	selected      int // accepted candidate (-1 until decided)
	wantSlots     []wEntry
	verifiedW     bool
	pendingVerify int
	outputs       [][]byte
	onDecide      func()
}

type wEntry struct {
	slot  int
	hash  component.Hash8
	proof []byte
}

// newDumbo builds the instance and registers its components.
func newDumbo(env *component.Env, opts Options) Instance {
	d := &Dumbo{
		env:      env,
		proofs:   make(map[int][]byte),
		selected: -1,
		onDecide: opts.OnDecide,
	}
	d.prbc = component.NewPRBC(env, component.PRBCOptions{
		Slots:     env.N,
		OnProof:   d.onProof,
		OnDeliver: func(int, []byte) { d.maybeFinish() },
	})
	d.cbcValue = component.NewCBC(env, component.CBCOptions{
		Kind:      packet.KindCBCValue,
		Slots:     env.N,
		OnDeliver: d.onCBCValue,
	})
	d.cbcCommit = component.NewCBC(env, component.CBCOptions{
		Kind:      packet.KindCBCCommit,
		Slots:     env.N,
		Small:     true,
		OnDeliver: d.onCBCCommit,
	})
	// Serial ABA: instances execute one at a time in π order, so coins are
	// per-instance (no cross-instance sharing to leak future coins).
	d.aba = newABA(env, env.N, opts.Coin, false, d.onABADecide)
	return d
}

var _ Instance = (*Dumbo)(nil)

// Start implements Instance.
func (d *Dumbo) Start(proposal []byte) { d.prbc.Propose(d.env.Me, proposal) }

// Done implements Instance.
func (d *Dumbo) Done() bool { return d.outputs != nil }

// Outputs implements Instance.
func (d *Dumbo) Outputs() [][]byte { return d.outputs }

// onProof fires when a PRBC slot has a combined delivery proof. At 2f+1
// proofs this node CBC-broadcasts its proof vector W_i.
func (d *Dumbo) onProof(slot int, _ []byte, proof []byte) {
	d.proofs[slot] = proof
	if d.valueSent || len(d.proofs) < d.env.Quorum() {
		return
	}
	d.valueSent = true
	var w []byte
	count := 0
	for _, s := range sortedKeys(d.proofs) {
		if count == d.env.Quorum() {
			break
		}
		h := component.HashValue(d.prbc.RBC().Value(s))
		w = append(w, byte(s))
		w = append(w, h[:]...)
		w = binary.BigEndian.AppendUint16(w, uint16(len(d.proofs[s])))
		w = append(w, d.proofs[s]...)
		count++
	}
	d.cbcValue.Propose(d.env.Me, w)
}

// onCBCValue fires when candidate j's proof vector is consistently
// delivered. At 2f+1 deliveries this node CBC-broadcasts its commit set.
func (d *Dumbo) onCBCValue(int, []byte, []byte) {
	if n := d.cbcValue.DeliveredCount(); !d.commitSent && n >= d.env.Quorum() {
		d.commitSent = true
		set := packet.NewBitSet(d.env.N)
		for s := 0; s < d.env.N; s++ {
			if d.cbcValue.Delivered(s) {
				set.Set(s)
			}
		}
		d.cbcCommit.Propose(d.env.Me, set)
	}
	d.pumpSelected()
}

// onCBCCommit fires when a commit set is delivered. At 2f+1 commits the
// common order π is fixed and the serial ABA phase begins.
func (d *Dumbo) onCBCCommit(int, []byte, []byte) {
	if d.abaSeq != nil || d.cbcCommit.DeliveredCount() < d.env.Quorum() {
		return
	}
	d.abaSeq = commonPermutation("dumbo-pi", d.env.Session, d.env.Epoch, d.env.N)
	d.runNextCandidate()
}

// runNextCandidate inputs the next serial ABA in π order: 1 if this node
// saw the candidate's CBC-value complete, 0 otherwise. A candidate that
// already decided (its peers' DECIDED claims arrived while this node was
// still in the CBC phase — the late-join case) is consumed directly.
func (d *Dumbo) runNextCandidate() {
	if d.abaRunning || d.selected >= 0 || d.abaIdx >= len(d.abaSeq) {
		return
	}
	c := d.abaSeq[d.abaIdx]
	if dec := d.aba.Decided(c); dec != nil {
		d.onABADecide(c, *dec)
		return
	}
	d.abaRunning = true
	d.aba.Input(c, d.cbcValue.Delivered(c))
}

func (d *Dumbo) onABADecide(slot int, v bool) {
	if d.selected >= 0 {
		return
	}
	if v {
		// The serial schedule accepts exactly one candidate, so any
		// 1-decision identifies it — even when it arrives out of π order
		// through peers' DECIDED claims before this (recovering) node has
		// fixed π or run the earlier candidates itself.
		d.abaRunning = false
		d.selected = slot
		d.pumpSelected()
		return
	}
	// 0-decisions advance the serial schedule strictly in π order.
	if d.abaSeq == nil || d.abaIdx >= len(d.abaSeq) || slot != d.abaSeq[d.abaIdx] {
		return
	}
	d.abaRunning = false
	d.abaIdx++
	d.runNextCandidate()
}

// pumpSelected advances output assembly once the accepted candidate's
// vector is available: verify the PRBC proofs inside it, then wait for the
// referenced PRBC values (totality + NACK repair deliver them).
func (d *Dumbo) pumpSelected() {
	if d.outputs != nil || d.selected < 0 || !d.cbcValue.Delivered(d.selected) {
		return
	}
	if !d.verifiedW {
		w, err := parseW(d.cbcValue.Value(d.selected), d.env.N)
		if err != nil || len(w) < d.env.Quorum() {
			// A vector that is malformed, or names fewer than 2f+1 distinct
			// slots, from a Byzantine candidate should have been filtered by
			// external validity; skip the candidate to keep liveness in the
			// simulation.
			d.env.Reject()
			d.selected = -1
			d.abaIdx++
			d.runNextCandidate()
			return
		}
		d.wantSlots = w
		d.verifiedW = true
		d.pendingVerify = len(w)
		env := d.env
		for _, e := range w {
			e := e
			env.Exec(env.Suite.Cost.TSVerify, func() {
				if err := d.prbc.VerifyProof(e.slot, e.hash, e.proof); err != nil {
					// Invalid proof: reject the candidate entirely.
					env.Reject()
					d.wantSlots = nil
				}
				d.pendingVerify--
				d.maybeFinish()
			})
		}
		return
	}
	d.maybeFinish()
}

func (d *Dumbo) maybeFinish() {
	if d.outputs != nil || !d.verifiedW || d.pendingVerify > 0 {
		return
	}
	if d.wantSlots == nil {
		// Candidate rejected after proof verification: move on.
		d.selected = -1
		d.verifiedW = false
		d.abaIdx++
		d.runNextCandidate()
		return
	}
	rbc := d.prbc.RBC()
	for _, e := range d.wantSlots {
		if !rbc.Delivered(e.slot) {
			return // the verified proof says it will: PRBC totality and NACK repair deliver it
		}
	}
	outputs := make([][]byte, d.env.N)
	for _, e := range d.wantSlots {
		outputs[e.slot] = rbc.Value(e.slot)
	}
	d.outputs = outputs
	if d.onDecide != nil {
		d.onDecide()
	}
}

// parseW decodes a proof vector over the given number of slots. Each entry
// must name a slot of its own: 2f+1 copies of one genuine proof would each
// verify and fix an output set of a single proposal.
func parseW(raw []byte, slots int) ([]wEntry, error) {
	var out []wEntry
	seen := make([]bool, slots)
	for len(raw) > 0 {
		if len(raw) < 1+8+2 {
			return nil, errMalformedW
		}
		var e wEntry
		e.slot = int(raw[0])
		if e.slot >= slots || seen[e.slot] {
			return nil, errMalformedW
		}
		seen[e.slot] = true
		copy(e.hash[:], raw[1:9])
		n := int(binary.BigEndian.Uint16(raw[9:11]))
		raw = raw[11:]
		if len(raw) < n {
			return nil, errMalformedW
		}
		e.proof = append([]byte(nil), raw[:n]...)
		raw = raw[n:]
		out = append(out, e)
	}
	return out, nil
}

var errMalformedW = errors.New("protocol: malformed proof vector")

// commonPermutation derives a common order π over n slots from the epoch
// identity, under a per-protocol domain: Dumbo's candidate order
// ("dumbo-pi") and Alea's queue priority ("alea-pi"). All nodes compute the
// same order, rotated across epochs so no slot is permanently favored.
// (Dumbo derives π from unpredictable randomness to resist adaptive
// adversaries; a public hash preserves the protocol structure the
// evaluation measures and is documented in DESIGN.md.)
func commonPermutation(domain string, session uint32, epoch uint16, n int) []int {
	var seedInput [16]byte
	copy(seedInput[:8], domain)
	binary.BigEndian.PutUint32(seedInput[8:], session)
	binary.BigEndian.PutUint16(seedInput[12:], epoch)
	d := sha256.Sum256(seedInput[:])
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(d[:8])))).Perm(n)
}

func sortedKeys(m map[int][]byte) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
