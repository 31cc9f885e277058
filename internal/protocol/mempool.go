package protocol

import (
	"crypto/sha256"
	"time"
)

// txKey is the truncated transaction digest used for mempool and commit
// deduplication. 16 bytes keeps collision probability negligible at the
// transaction volumes a LoRa-class channel can carry.
type txKey [16]byte

func txDigest(tx []byte) txKey {
	full := sha256.Sum256(tx)
	var k txKey
	copy(k[:], full[:16])
	return k
}

// The cut policy's ages and the dedup horizon, for the paper's 64-byte
// transactions on the LoRa-class channel.
const (
	// maxTxAge makes the pool ready once its oldest pending transaction has
	// waited this long, so light traffic still commits promptly: the age
	// half of the cut policy. It also bounds how long a HoldEmpty chain
	// holds an epoch's proposal (ChainConfig.HoldEmpty).
	maxTxAge = 20 * time.Second
	// dedupHorizon is how many epochs committed digests are remembered
	// for. It bounds the pipeline window (MaxWindow): a transaction
	// committed in epoch e can reappear in the in-flight proposals of
	// epochs up to e + Window - 1.
	dedupHorizon = 16
	// reproposeAge is the crash fallback of sharding: a transaction
	// unproposed for that long becomes fair game for every node
	// (commit-time dedup absorbs the resulting overlap).
	reproposeAge = 5 * time.Minute
)

// MempoolConfig tunes the proposal-cut policy.
type MempoolConfig struct {
	// TargetBatchBytes makes the pool "ready" as soon as this many payload
	// bytes are pending: the size half of the cut policy.
	TargetBatchBytes int
	// MaxBatchBytes caps one proposal; Cut never exceeds it.
	MaxBatchBytes int
	// Shard/Shards partition proposals across nodes: with Shards = N, this
	// node's cuts prefer transactions whose digest maps to Shard, so the N
	// broadcast mempools contribute mostly disjoint batches and the epoch's
	// union carries ~N distinct batches instead of N copies of one.
	// Shards <= 1 disables sharding.
	Shard, Shards int
	// MaxPendingBytes is the admission-control cap on the pool's total
	// payload bytes, pending plus in-flight: an Add that would push the
	// pool past it is rejected (and counted, see RejectedFull) instead of
	// queueing unboundedly — the backpressure open-loop traffic needs to
	// degrade gracefully under overload. Zero disables the cap, which is
	// the default: the right size depends on the offered load, so a run
	// that wants backpressure names its cap.
	MaxPendingBytes int
}

type mtx struct {
	data []byte
	key  txKey
	enq  time.Duration // admitted: the age policy's clock, the tx latency's start
	// inflight is the epoch currently proposing this transaction, or -1.
	// In-flight transactions stay in the pool (their slot may be rejected
	// by the common subset) but are skipped by later cuts until requeued.
	inflight int
}

// Mempool accumulates client payloads for one node's Chain engine. It
// deduplicates admissions against both pending and recently committed
// transactions, cuts proposals oldest-first under the size/age policy, and
// garbage-collects its committed-digest memory beyond a sliding epoch
// horizon so state stays bounded under sustained load.
//
// Like everything else in the simulator it is single-threaded: the
// scheduler serializes all calls.
type Mempool struct {
	cfg         MempoolConfig
	txs         []*mtx
	pending     int // bytes not in flight
	pendingMine int // bytes not in flight and assigned to this shard
	// nMine/nOther count not-in-flight transactions per shard class, so
	// AgeDeadline knows when a class is absent without scanning for it.
	nMine, nOther int
	index         map[txKey]*mtx
	// committed maps digest -> commit epoch, pruned by GC to the horizon.
	committed map[txKey]int
	// duplicates counts admissions rejected as already pending/committed.
	duplicates int
	// pooled is the pool's total payload bytes, pending plus in flight
	// (the quantity MaxPendingBytes caps); peakPooled is its high-water
	// mark and rejectedFull counts admissions the cap refused.
	pooled, peakPooled int
	rejectedFull       int
}

// WithDefaults fills the zero batch caps with the defaults sized for the
// paper's 64-byte transactions on the LoRa-class channel: a 256-byte
// target and a 512-byte cap.
func (cfg MempoolConfig) WithDefaults() MempoolConfig {
	if cfg.TargetBatchBytes <= 0 {
		cfg.TargetBatchBytes = 256
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 512
	}
	return cfg
}

// NewMempool builds an empty pool. Zero-valued config fields fall back to
// defaults.
func NewMempool(cfg MempoolConfig) *Mempool {
	return &Mempool{
		cfg:       cfg.WithDefaults(),
		index:     make(map[txKey]*mtx),
		committed: make(map[txKey]int),
	}
}

// Add admits a transaction at virtual time now. It reports false for
// duplicates of pending or recently committed transactions, and for
// transactions too large to ever fit a proposal.
func (m *Mempool) Add(tx []byte, now time.Duration) bool {
	if len(tx) > m.cfg.MaxBatchBytes || len(tx) > 65535 {
		return false // cannot fit a proposal / EncodeBatch's u16 length
	}
	key := txDigest(tx)
	if _, dup := m.index[key]; dup {
		m.duplicates++
		return false
	}
	if _, done := m.committed[key]; done {
		m.duplicates++
		return false
	}
	if m.cfg.MaxPendingBytes > 0 && m.pooled+len(tx) > m.cfg.MaxPendingBytes {
		m.rejectedFull++
		return false
	}
	e := &mtx{data: tx, key: key, enq: now, inflight: -1}
	m.txs = append(m.txs, e)
	m.index[key] = e
	m.pooled += len(tx)
	if m.pooled > m.peakPooled {
		m.peakPooled = m.pooled
	}
	m.pend(e, 1)
	return true
}

// pend moves e into (d = 1) or out of (d = -1) the pending classes: the
// bytes not in flight, and the assigned bytes and per-class counts among
// them.
func (m *Mempool) pend(e *mtx, d int) {
	m.pending += d * len(e.data)
	if m.assigned(e.key) {
		m.pendingMine += d * len(e.data)
		m.nMine += d
	} else {
		m.nOther += d
	}
}

// assigned reports whether this shard prefers the transaction.
func (m *Mempool) assigned(key txKey) bool {
	return m.cfg.Shards <= 1 || int(key[0])%m.cfg.Shards == m.cfg.Shard
}

// proposable reports whether a cut at virtual time now may take the
// transaction: it is not in flight, and either assigned to this shard or
// so old that the crash fallback opens it to everyone.
func (m *Mempool) proposable(e *mtx, now time.Duration) bool {
	if e.inflight >= 0 {
		return false
	}
	return m.assigned(e.key) || now-e.enq >= reproposeAge
}

// Ready reports whether the cut policy would produce a proposal now:
// either TargetBatchBytes of assigned payload is pending, or the oldest
// assigned transaction has exceeded maxTxAge, or an unassigned one has
// exceeded reproposeAge.
func (m *Mempool) Ready(now time.Duration) bool {
	if m.pendingMine >= m.cfg.TargetBatchBytes {
		return true
	}
	at, ok := m.AgeDeadline()
	return ok && now >= at
}

// AgeDeadline returns the earliest virtual time at which some pending
// transaction trips the age half of the cut policy (the moment Ready flips
// true on age alone). ok is false when nothing is pending. The pool is
// FIFO by enqueue time, so the first pending transaction of each class
// (assigned / unassigned) carries that class's earliest deadline and the
// scan stops there — Submit-time Ready checks stay cheap even when a slow
// chain lets the pool back up.
func (m *Mempool) AgeDeadline() (at time.Duration, ok bool) {
	sawMine, sawOther := m.nMine == 0, m.nOther == 0
	if sawMine && sawOther {
		return 0, false
	}
	for _, e := range m.txs {
		if e.inflight >= 0 {
			continue
		}
		mine := m.assigned(e.key)
		if (mine && sawMine) || (!mine && sawOther) {
			continue
		}
		d := e.enq + maxTxAge
		if mine {
			sawMine = true
		} else {
			sawOther = true
			d = e.enq + reproposeAge
		}
		if !ok || d < at {
			at, ok = d, true
		}
		if sawMine && sawOther {
			break
		}
	}
	return at, ok
}

// Cut collects the oldest proposable transactions up to MaxBatchBytes and
// marks them in flight for epoch. They remain pooled until committed (their
// slot may lose the common subset) but later cuts skip them.
func (m *Mempool) Cut(epoch int, now time.Duration) [][]byte {
	var out [][]byte
	var bytes int
	for _, e := range m.txs {
		if !m.proposable(e, now) {
			continue
		}
		if bytes+len(e.data) > m.cfg.MaxBatchBytes && bytes > 0 {
			break
		}
		e.inflight = epoch
		m.pend(e, -1)
		bytes += len(e.data)
		out = append(out, e.data)
		if bytes >= m.cfg.MaxBatchBytes {
			break
		}
	}
	return out
}

// MarkCommitted records keys as committed in epoch, drops matching
// transactions from the pool, whether pending or in flight, and returns
// the admission instants of those it held, in keys order.
func (m *Mempool) MarkCommitted(keys []txKey, epoch int) (admitted []time.Duration) {
	drop := make(map[txKey]bool, len(keys))
	for _, k := range keys {
		m.committed[k] = epoch
		drop[k] = true
		if e, ok := m.index[k]; ok {
			admitted = append(admitted, e.enq)
		}
	}
	kept := m.txs[:0]
	for _, e := range m.txs {
		if drop[e.key] {
			delete(m.index, e.key)
			m.pooled -= len(e.data)
			if e.inflight < 0 {
				m.pend(e, -1)
			}
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(m.txs); i++ {
		m.txs[i] = nil
	}
	m.txs = kept
	return admitted
}

// Requeue returns epoch's surviving in-flight transactions to pending:
// called after the epoch commits, when any of its proposals that the
// common subset rejected must become eligible for a future cut.
func (m *Mempool) Requeue(epoch int) {
	for _, e := range m.txs {
		if e.inflight == epoch {
			e.inflight = -1
			m.pend(e, 1)
		}
	}
}

// GC prunes committed digests older than the horizon, keeping dedup memory
// proportional to traffic within the window rather than the chain's life.
func (m *Mempool) GC(commitEpoch int) {
	for k, e := range m.committed {
		if e+dedupHorizon <= commitEpoch {
			delete(m.committed, k)
		}
	}
}

// WasCommitted reports whether key committed within the dedup horizon.
func (m *Mempool) WasCommitted(key txKey) bool {
	_, ok := m.committed[key]
	return ok
}

// Len returns the number of pooled transactions (pending plus in flight).
func (m *Mempool) Len() int { return len(m.txs) }

// PendingBytes returns the payload bytes eligible for the next cut.
func (m *Mempool) PendingBytes() int { return m.pending }

// CommittedSize returns the committed-digest memory size (GC observability).
func (m *Mempool) CommittedSize() int { return len(m.committed) }

// Duplicates returns how many admissions were rejected as duplicates.
func (m *Mempool) Duplicates() int { return m.duplicates }

// PoolBytes returns the pool's total payload bytes, pending plus in
// flight — the quantity MaxPendingBytes caps.
func (m *Mempool) PoolBytes() int { return m.pooled }

// PeakPoolBytes returns the pool's byte high-water mark: the proof that
// backpressure kept mempool growth bounded over a run.
func (m *Mempool) PeakPoolBytes() int { return m.peakPooled }

// RejectedFull returns how many admissions the MaxPendingBytes cap
// refused (always zero with the cap disabled).
func (m *Mempool) RejectedFull() int { return m.rejectedFull }
