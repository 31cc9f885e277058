package run

import (
	"time"

	"repro/internal/node"
	"repro/internal/protocol"
)

// The one-shot workload — the paper's evaluation runs, Fig. 13a on one
// channel and Fig. 13b on the Sec. V-B two-tier deployment — is a depth-1
// chain capped at Epochs epochs (chain.go, mhchain.go). What this file adds
// is a proposal source and the bookkeeping that times each epoch:
//
//   - At t = 0 every member's unsharded pool receives its own Epochs
//     batches, in epoch order, submitted to that member alone. A pool cuts
//     exactly one batch at a time, so epoch e proposes batch e; a batch the
//     common subset leaves out goes back to the pool, as in any chain, and
//     the next epoch proposes it again.
//   - t(e), the instant epoch e counts as done, is on single-hop the first
//     instant the group's own barrier holds for e: every live honest
//     member has committed it. Under the clustered topology it is the first
//     instant every live honest member of every untainted cluster has
//     heard, by frontier beacon, a global order that holds 2f_g+1 untainted
//     clusters' certified cuts of local epoch e: the fastest 2f_g+1 clusters
//     complete an epoch, as in the paper's two-tier design. An epoch the run
//     ends before every member hears is timed at the run's end.

// oneShotBatch returns the payload sizes of one batch's BatchSize client
// transactions. Framed by EncodeBatch and sealed — or, when the engine
// encrypts, bound by the ciphertext instead — they take BatchSize × TxSize
// bytes, so a proposal's size on the air does not depend on the framing;
// no payload is shorter than MakeClientTx's 8-byte sequence number.
func oneShotBatch(s Spec) []int {
	b := s.Workload.BatchSize
	room := b*s.Workload.TxSize - 2 - 2*b // EncodeBatch: a count, a length per tx
	if !s.Encrypt {
		room -= protocol.SealLen
	}
	sizes := make([]int, b)
	for t := range sizes {
		sizes[t] = room / b
		if t < room%b {
			sizes[t]++
		}
		sizes[t] = max(sizes[t], 8)
	}
	return sizes
}

// seedOneShot submits every member's proposals for the whole run to that
// member's pool. Sequence numbers are deployment-global, so no two
// members' batches share a transaction.
func seedOneShot(spec Spec, locals []*chainGroup) {
	sizes := oneShotBatch(spec)
	seq := 0
	for _, g := range locals {
		for _, c := range g.chains {
			for range spec.Workload.Epochs {
				for _, size := range sizes {
					c.Submit(protocol.MakeClientTx(seq, size))
					seq++
				}
			}
		}
	}
}

// epochClock records t(e) for a one-shot run. Under the clustered topology
// it also follows the cross-cluster cut order, to know how long a prefix
// of it holds 2f_g+1 untainted clusters' cuts of each local epoch.
type epochClock struct {
	epochs int
	at     []time.Duration
	// quorum is 2f_g+1; ordered is the length of the cut order the
	// furthest untainted seat has accepted; cuts[e] counts the untainted
	// clusters' cuts of local epoch e in it, and quorumAt[e] is the order
	// length at which that count reached quorum (0 until it does).
	quorum, ordered int
	cuts, quorumAt  []int
}

func newEpochClock(spec Spec) *epochClock {
	if spec.Workload.Kind != LoadOneShot {
		return nil
	}
	e := spec.Workload.Epochs
	return &epochClock{
		epochs:   e,
		quorum:   2*node.Faults(spec.Topology.Clusters) + 1,
		cuts:     make([]int, e),
		quorumAt: make([]int, e),
	}
}

// tick times, at now, every epoch below reached that has no time yet.
func (c *epochClock) tick(now time.Duration, reached int) {
	for len(c.at) < min(reached, c.epochs) {
		c.at = append(c.at, now)
	}
}

// order notes that an untainted seat accepted the cut at position pos of
// the cross-cluster order, of local epoch e; counted marks a cut of an
// untainted cluster. Untainted seats accept the same order, so only a
// position no seat has accepted before is new.
func (c *epochClock) order(pos, e int, counted bool) {
	if pos <= c.ordered {
		return
	}
	c.ordered = pos
	if counted {
		c.cuts[e]++
		if c.cuts[e] == c.quorum {
			c.quorumAt[e] = pos
		}
	}
}

// heard returns how many leading local epochs a member that has heard an
// order of length n knows complete.
func (c *epochClock) heard(n int) int {
	e := len(c.at)
	for e < c.epochs && c.quorumAt[e] > 0 && c.quorumAt[e] <= n {
		e++
	}
	return e
}

// report fills the Report's OneShot section: EpochLatencies[e] is
// t(e) − t(e−1), DeliveredTxs the transactions every group committed, and
// TPM their count per minute of Σ EpochLatencies.
func (c *epochClock) report(rep *Report, locals []*chainGroup) {
	os := &OneShotReport{}
	var prev time.Duration
	for e := 0; e < c.epochs; e++ {
		t := rep.Duration
		if e < len(c.at) {
			t = c.at[e]
		}
		os.EpochLatencies = append(os.EpochLatencies, t-prev)
		prev = t
	}
	for _, g := range locals {
		if ref := g.ref(); ref != nil {
			os.DeliveredTxs += ref.CommittedTxs()
		}
	}
	os.MeanLatency = prev / time.Duration(c.epochs)
	if prev > 0 {
		os.TPM = float64(os.DeliveredTxs) / prev.Minutes()
	}
	rep.OneShot = os
}
