package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"

	"repro/internal/component"
	"repro/internal/packet"
)

// Dumbo implements Dumbo2 (Fig. 7b): N parallel PRBC instances produce
// provable deliveries; two sets of N parallel CBC instances (CBC-value
// carrying vectors of 2f+1 (slot, hash) pairs, CBC-commit carrying small
// index sets) synchronize the completed-PRBC views; a common string π
// orders the candidates; serial ABA instances then run until one accepts,
// and the accepted candidate's vector defines the output set.
//
// A node echoes a vector only once it holds a PRBC proof for every pair
// (validW), so a certified vector is one at least f+1 honest nodes found
// valid. The paper's port sends the proofs themselves and checks them only
// after agreement; checking at the echo is Dumbo2's external validity.
type Dumbo struct {
	env *component.Env

	prbc      *component.PRBC
	cbcValue  *component.CBC
	cbcCommit *component.CBC
	aba       binaryAgreement

	proofs     map[int]component.Hash8 // slot -> hash its PRBC proof vouches for
	valueSent  bool
	commitSent bool
	abaSeq     []int // π: candidate order
	abaIdx     int   // next candidate to run
	abaRunning bool
	selected   int // accepted candidate (-1 until decided)
	outputs    [][]byte
	onDecide   func()
}

// wEntry is one pair of a vector: a slot, and the hash of the value its
// PRBC proof vouches for.
type wEntry struct {
	slot int
	hash component.Hash8
}

// wEntrySize is a pair's size on the wire: the slot byte and the hash.
const wEntrySize = 1 + len(component.Hash8{})

// newDumbo builds the instance and registers its components.
func newDumbo(env *component.Env, opts Options) Instance {
	d := &Dumbo{
		env:      env,
		proofs:   make(map[int]component.Hash8),
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
		Valid:     d.validW,
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

// Outputs implements Instance.
func (d *Dumbo) Outputs() [][]byte { return d.outputs }

// onProof fires when a PRBC slot has a combined delivery proof: a vector
// waiting on it may now be valid. At 2f+1 proofs this node CBC-broadcasts
// its vector W_i.
func (d *Dumbo) onProof(slot int, value []byte) {
	d.proofs[slot] = component.HashValue(value)
	d.cbcValue.Recheck()
	if d.valueSent || len(d.proofs) < d.env.Quorum() {
		return
	}
	d.valueSent = true
	var w []byte
	for s := 0; len(w) < d.env.Quorum()*wEntrySize; s++ {
		if h, held := d.proofs[s]; held {
			w = append(append(w, byte(s)), h[:]...)
		}
	}
	d.cbcValue.Propose(d.env.Me, w)
}

// validW is CBC-value's validity predicate. A vector is valid when it
// names 2f+1 distinct slots below N and this node holds a PRBC proof for
// each over the hash it names; it waits on a proof not held here yet, and
// is refused when malformed or when a held proof vouches for another hash.
func (d *Dumbo) validW(_ int, raw []byte) component.Verdict {
	w := parseW(raw, d.env.N)
	if len(w) != d.env.Quorum() {
		return component.Refuse
	}
	verdict := component.Accept
	for _, e := range w {
		h, held := d.proofs[e.slot]
		if !held {
			verdict = component.Wait
		} else if h != e.hash {
			return component.Refuse
		}
	}
	return verdict
}

// onCBCValue fires when candidate j's vector is consistently delivered.
// At 2f+1 deliveries this node CBC-broadcasts its commit set.
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
	d.maybeFinish()
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
		d.maybeFinish()
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

// maybeFinish outputs the accepted candidate's set once its vector is
// delivered here and so is every PRBC value it names. The vector is
// certified, so f+1 honest nodes validated it: it is well formed, and
// each value it names has a proof, which PRBC totality and NACK repair
// turn into a delivery here.
func (d *Dumbo) maybeFinish() {
	if d.outputs != nil || d.selected < 0 || !d.cbcValue.Delivered(d.selected) {
		return
	}
	w := parseW(d.cbcValue.Value(d.selected), d.env.N)
	if w == nil {
		return // only if more than f nodes signed an invalid vector
	}
	rbc := d.prbc.RBC()
	outputs := make([][]byte, d.env.N)
	for _, e := range w {
		if !rbc.Delivered(e.slot) {
			return
		}
		outputs[e.slot] = rbc.Value(e.slot)
	}
	d.outputs = outputs
	if d.onDecide != nil {
		d.onDecide()
	}
}

// parseW decodes a vector over the given number of slots, or returns nil
// if it is malformed. Each pair must name a slot of its own: 2f+1 copies
// of one genuine pair would fix an output set of a single proposal.
func parseW(raw []byte, slots int) []wEntry {
	if len(raw)%wEntrySize != 0 {
		return nil
	}
	var out []wEntry
	seen := make([]bool, slots)
	for ; len(raw) > 0; raw = raw[wEntrySize:] {
		e := wEntry{slot: int(raw[0])}
		if e.slot >= slots || seen[e.slot] {
			return nil
		}
		seen[e.slot] = true
		copy(e.hash[:], raw[1:wEntrySize])
		out = append(out, e)
	}
	return out
}

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
	// Seed resets a generator to the state NewSource gives it, so a reused
	// one draws the same order without a fresh 4.9 KB source.
	rng := permRands.Get().(*rand.Rand)
	rng.Seed(int64(binary.BigEndian.Uint64(d[:8])))
	perm := rng.Perm(n)
	permRands.Put(rng)
	return perm
}

// permRands are commonPermutation's generators; simulations running
// concurrently each take their own.
var permRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}
