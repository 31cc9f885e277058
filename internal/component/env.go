// Package component implements the paper's consensus components — RBC,
// PRBC, CBC (plus the -small variants), Bracha's ABA (local coin), and
// Cachin-style ABA (shared coin / coin flipping) — as event-driven state
// machines over the ConsensusBatcher transport (internal/core).
//
// Components are transport-mode agnostic: they emit slot-granular intents
// and the transport decides whether to batch them (ConsensusBatcher) or
// send one frame per instance event (baseline). A node's own contributions
// are applied locally through the same code path as received ones, so
// self-votes are never double-counted or forgotten.
package component

import (
	"crypto/sha256"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/sim"
)

// Env is the per-node execution environment shared by all components of
// one epoch.
type Env struct {
	N, F    int
	Me      int // 0-based node index
	Epoch   uint16
	Session uint32
	Suite   *crypto.Suite
	T       *core.Transport
	CPU     *sim.CPU
	Sched   *sim.Scheduler
	Rand    *rand.Rand
}

// Quorum returns 2f+1.
func (e *Env) Quorum() int { return 2*e.F + 1 }

// Weak returns f+1.
func (e *Env) Weak() int { return e.F + 1 }

// Exec charges cost to the node's CPU and then runs fn.
func (e *Env) Exec(cost time.Duration, fn func()) { e.CPU.Exec(cost, fn) }

// Reject counts one discarded invalid inbound contribution — a share,
// certificate, proof, or proposal that failed verification — in the
// transport's Stats.Rejected. Under active-Byzantine scenarios this is
// how much adversarial traffic the component defenses absorbed.
func (e *Env) Reject() { e.T.NoteRejected() }

// peer returns a frame's sender as a node index. The frame verified as the
// station that transmitted it, but any station on the channel can
// transmit, and the components' per-peer tables are indexed by the
// sender, so every HandleSection starts here: a sender that is none of
// the N nodes counts as one rejected contribution and ok is false.
func (e *Env) peer(from uint16) (w int, ok bool) {
	if int(from) >= e.N {
		e.Reject()
		return 0, false
	}
	return int(from), true
}

// Hash8 is the truncated proposal digest used inside batched vote packets
// (the paper's "hash part" identifies each of the N proposals).
type Hash8 [8]byte

// HashValue computes the truncated digest of a proposal.
func HashValue(v []byte) Hash8 {
	full := sha256.Sum256(v)
	var h Hash8
	copy(h[:], full[:8])
	return h
}

// voteNone marks an absent vote in serialized vote vectors.
const voteNone = 3

const (
	// sharedSlot is the sentinel slot for state shared across all parallel
	// instances (e.g. the per-round common coin of batched Cachin ABA).
	sharedSlot = 0xFF
)
