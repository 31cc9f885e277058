package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto/group"
	"repro/internal/sim"
)

// This file is the SMR layer: Chain turns the single-epoch Instance engines
// into a replicated log. One Chain per node wraps any of the five protocol
// variants, pipelines a window of epochs over a core.Mux (epoch e+1's RBC
// phase runs while epoch e's ABA is still deciding), deduplicates the union
// of accepted proposals into a total-order log, and garbage-collects old
// epochs so memory stays bounded under sustained traffic. This is the shape
// HoneyBadgerBFT and Dumbo deploy as — continuous multi-epoch ordering —
// rather than the one-shot ACS the paper's evaluation times.

// ChainConfig tunes one node's SMR engine.
type ChainConfig struct {
	Protocol Kind
	Coin     CoinKind
	Batched  bool
	Encrypt  bool
	// Window is the pipeline depth: how many epochs may run concurrently.
	// 1 reproduces strictly sequential epochs.
	Window int
	// GCLag is how many epochs behind the commit frontier an epoch's
	// transport is kept alive, at the least, to serve NACK repairs to
	// lagging peers; past it, the epoch closes once every peer's frontier
	// is past it too, or gcHold GCLags behind the frontier whatever the
	// peers show. It must be at least Window; zero picks Window + 2.
	GCLag int
	// MaxEpochs stops the engine from starting epochs >= this (0 = no cap).
	MaxEpochs int
	Mempool   MempoolConfig
}

// LogEntry is one committed epoch: the deduplicated union of the epoch's
// accepted proposals, in deterministic (slot, proposal-position) order.
type LogEntry struct {
	Epoch int
	Txs   [][]byte
}

// chainEpoch is one in-flight or committed epoch at one node.
type chainEpoch struct {
	inst      Instance
	startedAt time.Duration
	decided   bool
}

// gcHold bounds, in GCLags behind the commit frontier, how long the epoch
// GC waits on a peer whose frontier is not past an epoch: a dead peer, or
// one that lies about its epochs, can hold an epoch open only that long.
const gcHold = 4

// Chain is one node's replicated-log engine.
type Chain struct {
	// env is the node's component environment; every epoch runs on a copy
	// with its own Epoch and transport.
	env component.Env
	mux *core.Mux
	cfg ChainConfig

	mempool *Mempool
	epochs  map[int]*chainEpoch
	// led is each epoch's write-ahead log of the values this node leads
	// (component.Led). Crash preserves it; entries die with the epoch GC.
	led map[int]component.Led
	// nextStart is the lowest epoch not yet started here; nextCommit the
	// lowest not yet committed. Invariant: nextCommit <= nextStart <
	// nextCommit + Window.
	nextStart  int
	nextCommit int
	// nextClose is the lowest epoch the GC has not closed.
	nextClose int
	// peerMax is the highest epoch observed in peers' frames for epochs this
	// node has not opened: the pipeline signal that lets a node with a quiet
	// mempool join epochs its peers are already driving. The signal arrives
	// before frame authentication, so it never does more than start epochs
	// the window would permit anyway; a forged epoch number cannot push the
	// engine past nextCommit+Window.
	peerMax int

	log            []LogEntry
	committedTxs   int
	committedBytes uint64
	dedupDropped   int
	commitLatency  time.Duration // summed start->commit across committed epochs
	// submitAt records when each locally admitted transaction was
	// submitted; commit moves the entry into txLat as a true per-
	// transaction submit->commit latency sample. MeanCommitLatency is
	// epoch-granularity (proposal cut -> epoch commit) and under bursty
	// load wildly understates what a client actually waits — a
	// transaction can sit pooled across many epochs before any cut takes
	// it — so the percentile reporting runs off these samples instead.
	// Bookkeeping only: no scheduler or RNG interaction, so enabling it
	// cannot shift a simulated outcome.
	submitAt map[txKey]time.Duration
	txLat    []time.Duration

	ageEvt *sim.Event
	// OnCommit, if set, fires after each epoch commits (driver barrier).
	OnCommit func(epoch int)
	// OnEpochOpen, if set, fires when the engine opens an epoch, with the
	// epoch's component environment, before the epoch's instance starts.
	// Drivers use it to piggyback cross-cutting state on the pipeline — the
	// clustered chain deployment collects its cut certificates and hears
	// its global-order beacons here.
	OnEpochOpen func(epoch int, env *component.Env)
}

// NewChain builds the engine of the group member env describes around that
// node's epoch mux; env's Epoch and T are the chain's to fill, epoch by
// epoch. Call Start once the network is assembled.
func NewChain(env component.Env, mux *core.Mux, cfg ChainConfig) *Chain {
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.GCLag <= 0 {
		cfg.GCLag = cfg.Window + 2
	}
	if cfg.GCLag < cfg.Window {
		cfg.GCLag = cfg.Window
	}
	if cfg.Mempool.Shards == 0 {
		cfg.Mempool.Shard, cfg.Mempool.Shards = env.Me, env.N
	}
	c := &Chain{
		env:      env,
		mux:      mux,
		cfg:      cfg,
		mempool:  NewMempool(cfg.Mempool),
		epochs:   make(map[int]*chainEpoch),
		led:      make(map[int]component.Led),
		submitAt: make(map[txKey]time.Duration),
		peerMax:  -1,
	}
	mux.OnUnknownEpoch = c.onPeerEpoch
	return c
}

// Mempool exposes the node's pool (workload injection, tests).
func (c *Chain) Mempool() *Mempool { return c.mempool }

// Log returns the committed entries in order.
func (c *Chain) Log() []LogEntry { return c.log }

// CommittedEpochs returns the commit frontier (epochs 0..n-1 committed).
func (c *Chain) CommittedEpochs() int { return c.nextCommit }

// CommittedTxs returns the total committed transaction count.
func (c *Chain) CommittedTxs() int { return c.committedTxs }

// CommittedBytes returns the total committed payload bytes.
func (c *Chain) CommittedBytes() uint64 { return c.committedBytes }

// DedupDropped returns how many accepted-proposal transactions the commit
// step suppressed as duplicates (proposed by several nodes, or re-proposed
// by a pipelined epoch before its predecessor committed).
func (c *Chain) DedupDropped() int { return c.dedupDropped }

// MeanCommitLatency returns the mean epoch start-to-commit time here.
func (c *Chain) MeanCommitLatency() time.Duration {
	if c.nextCommit == 0 {
		return 0
	}
	return c.commitLatency / time.Duration(c.nextCommit)
}

// OpenEpochs returns how many epochs currently hold live state (GC bound).
func (c *Chain) OpenEpochs() int { return len(c.epochs) }

// Submit admits one client payload and advances the pipeline if the cut
// policy is now satisfied. Admission-control rejections (the
// MempoolConfig.MaxPendingBytes backpressure cap) are surfaced through
// the mux's Rejected counter, the same place Byzantine discards land.
func (c *Chain) Submit(tx []byte) bool {
	full := c.mempool.RejectedFull()
	ok := c.mempool.Add(tx, c.env.Sched.Now())
	if !ok {
		if c.mempool.RejectedFull() != full {
			c.mux.NoteRejected()
		}
		return false
	}
	c.submitAt[txDigest(tx)] = c.env.Sched.Now()
	c.advance()
	return true
}

// TxLatencies returns every committed transaction's submit->commit
// latency sample at this node, in commit order. Only transactions
// admitted here contribute (a node down at submission time never saw the
// client's transaction).
func (c *Chain) TxLatencies() []time.Duration { return c.txLat }

// Start arms the engine. Epochs begin as soon as the mempool's cut policy
// or a peer's pipeline signal triggers.
func (c *Chain) Start() { c.advance() }

// Crash models a process failure with stable storage: the committed log,
// the mempool (pending transactions and committed-digest horizon), the
// commit frontier, and the log of every value this node led in an open
// epoch (its batch or ciphertext, Dumbo's W vector and commit set)
// survive; every in-flight epoch's protocol state and per-epoch transport
// are discarded. The node-level crash (radio off, inbound gated) is the
// deployment layer's job — see node.Node.Crash.
func (c *Chain) Crash() {
	c.ageEvt.Cancel()
	c.ageEvt = nil
	c.mux.Stop()
	for e := range c.epochs {
		delete(c.epochs, e)
	}
}

// Recover restarts the engine after Crash: the pipeline resumes at the
// commit frontier (the epochs lost in flight are re-opened with fresh
// instances) and converges to the same log as everyone else — decided
// epochs are repaired from peers' NACK retransmissions, and the DECIDED
// gadget carries their ABAs over the line. This is the late-join path
// core.Mux.OnUnknownEpoch exists for: frames from epochs the peers are
// already driving pull the recovered node forward as fast as the pipeline
// window allows. Peers must still hold the frontier epochs: their GC waits
// for this node's frames to show it past an epoch, for up to gcHold GCLags.
func (c *Chain) Recover() {
	c.nextStart = c.nextCommit
	c.peerMax = -1 // re-learn the peers' frontier from their frames
	c.advance()
}

// onPeerEpoch handles a frame for an epoch this node has not opened. A
// frame for an epoch at or past nextStart means peers have already cut
// proposals up to there, so waiting on our own batch policy only delays
// those epochs' 2f+1 quorums: join as far as the window allows.
func (c *Chain) onPeerEpoch(epoch uint16) {
	e := int(epoch)
	if e < c.nextStart {
		return // stale: an epoch we already started (and perhaps closed)
	}
	if e > c.peerMax {
		c.peerMax = e
	}
	c.advance()
}

// advance starts every epoch the pipeline window and cut policy allow.
func (c *Chain) advance() {
	for c.canStart() {
		c.startEpoch(c.nextStart)
		c.nextStart++
	}
	c.armAgeTimer()
}

func (c *Chain) canStart() bool {
	e := c.nextStart
	if e >= c.nextCommit+c.cfg.Window {
		return false // window full
	}
	if c.cfg.MaxEpochs > 0 && e >= c.cfg.MaxEpochs {
		return false
	}
	return c.mempool.Ready(c.env.Sched.Now()) || e <= c.peerMax
}

// armAgeTimer schedules the re-evaluation at which the oldest pending
// transaction trips the age half of the cut policy.
func (c *Chain) armAgeTimer() {
	c.ageEvt.Cancel()
	c.ageEvt = nil
	if c.nextStart >= c.nextCommit+c.cfg.Window {
		return // window full; commit will re-advance
	}
	if c.cfg.MaxEpochs > 0 && c.nextStart >= c.cfg.MaxEpochs {
		return // chain capped; nothing left to start
	}
	if c.mempool.Ready(c.env.Sched.Now()) {
		return // policy already satisfied; advance() consumed what it could
	}
	at, ok := c.mempool.AgeDeadline()
	if !ok {
		return
	}
	c.ageEvt = c.env.Sched.At(at, c.advance)
}

// startEpoch opens the epoch's transport on the mux, builds the component
// environment and the protocol instance, and submits a cut proposal, or
// none if the epoch's log holds values to re-propose.
func (c *Chain) startEpoch(e int) {
	if c.led[e] == nil {
		c.led[e] = component.Led{}
	}
	env := c.env
	env.Epoch, env.T, env.Led = uint16(e), c.mux.Open(uint16(e)), c.led[e]
	if c.OnEpochOpen != nil {
		c.OnEpochOpen(e, &env)
	}
	ep := &chainEpoch{startedAt: c.env.Sched.Now()}
	ep.inst = NewInstance(&env, c.cfg.Protocol, Options{
		Coin: c.cfg.Coin, SharedCoin: c.cfg.Batched, Encrypt: c.cfg.Encrypt,
		OnDecide: func() { c.onDecide(e) },
	})
	c.epochs[e] = ep
	var prop []byte
	if len(env.Led) == 0 {
		prop = EncodeBatch(c.mempool.Cut(e, c.env.Sched.Now()))
		if !c.cfg.Encrypt {
			prop = SealBatch(prop)
		}
	}
	ep.inst.Start(prop)
}

// onDecide records the epoch's local decision and commits every contiguous
// decided epoch at the frontier, in order — the log never has gaps.
func (c *Chain) onDecide(e int) {
	ep := c.epochs[e]
	if ep == nil || ep.decided {
		return
	}
	ep.decided = true
	for {
		cur := c.epochs[c.nextCommit]
		if cur == nil || !cur.decided {
			break
		}
		c.commit(c.nextCommit, cur)
		c.nextCommit++
	}
	c.collect()
	c.advance()
}

// collect is the epoch GC: an epoch GCLag behind the commit frontier stops
// serving NACK repairs and is discarded once every peer's frontier is past
// it — a peer still in it, or one that crashed in it and will resume
// there, needs this node's state to finish — and gcHold GCLags behind the
// frontier regardless. Epochs close in order.
func (c *Chain) collect() {
	for ; c.nextClose < c.nextCommit-c.cfg.GCLag; c.nextClose++ {
		e := c.nextClose
		if e >= c.nextCommit-gcHold*c.cfg.GCLag && !c.peersPast(e) {
			return
		}
		c.mux.Close(uint16(e))
		delete(c.epochs, e)
		delete(c.led, e)
	}
}

// peersPast reports whether every peer's commit frontier is past epoch e,
// as far as its frames tell: a node works on epochs below its frontier
// plus Window only, so one heard working on epoch h has committed every
// epoch up to h - Window.
func (c *Chain) peersPast(e int) bool {
	for p := 0; p < c.env.N; p++ {
		if p != c.env.Me && c.mux.Heard(p)-c.cfg.Window < e {
			return false
		}
	}
	return true
}

// commit folds one decided epoch into the log: decode each accepted slot's
// batch, drop duplicates (within the union and against the recent-commit
// horizon), and append the survivors in slot order.
func (c *Chain) commit(e int, ep *chainEpoch) {
	var txs [][]byte
	var keys []txKey
	seen := make(map[txKey]bool)
	for _, prop := range ep.inst.Outputs() {
		if len(prop) == 0 {
			continue
		}
		batch, err := c.decode(prop)
		if err != nil {
			continue // malformed batch from a Byzantine proposer
		}
		for _, tx := range batch {
			k := txDigest(tx)
			if seen[k] || c.mempool.WasCommitted(k) {
				c.dedupDropped++
				continue
			}
			seen[k] = true
			txs = append(txs, tx)
			keys = append(keys, k)
			c.committedBytes += uint64(len(tx))
		}
	}
	c.log = append(c.log, LogEntry{Epoch: e, Txs: txs})
	c.committedTxs += len(txs)
	now := c.env.Sched.Now()
	for _, k := range keys {
		if at, ok := c.submitAt[k]; ok {
			c.txLat = append(c.txLat, now-at)
			delete(c.submitAt, k)
		}
	}
	c.commitLatency += now - ep.startedAt
	c.mempool.MarkCommitted(keys, e)
	// Our own proposals that lost the common subset go back in the pool.
	c.mempool.Requeue(e)
	c.mempool.GC(e)
	if c.OnCommit != nil {
		c.OnCommit(e)
	}
}

// decode parses one accepted proposal. A plaintext one must carry its seal;
// an encrypted one is bound by its ciphertext's tag, checked before any
// share of it was made.
func (c *Chain) decode(prop []byte) ([][]byte, error) {
	if c.cfg.Encrypt {
		return DecodeBatch(prop)
	}
	return OpenBatch(prop)
}

// MaxProposalBytes is the largest proposal one broadcast carries: the
// engines leave the components' fragment size at its default.
const MaxProposalBytes = component.MaxValueBytes

// ciphertextEnvelope bounds what threshold encryption adds to a proposal:
// the ciphertext codec's overhead over the largest group a suite can be
// dealt on.
func ciphertextEnvelope() int {
	worst := 0
	for _, g := range group.All() {
		worst = max(worst, component.CiphertextOverhead(g))
	}
	return worst
}

// CheckProposalSize returns an error if a proposal cut under this config
// from txSize-byte transactions could exceed MaxProposalBytes once framed
// by EncodeBatch and then sealed or, when the engine encrypts, wrapped in a
// ciphertext.
func (cfg ChainConfig) CheckProposalSize(txSize int) error {
	max := cfg.Mempool.WithDefaults().MaxBatchBytes
	worst := 2 + max + 2*(max/txSize)
	if cfg.Encrypt {
		worst += ciphertextEnvelope()
	} else {
		worst += SealLen
	}
	if worst > MaxProposalBytes {
		return fmt.Errorf("protocol: MaxBatchBytes %d allows proposals of %d B; one broadcast carries at most %d B (%d fragments of %d B)",
			max, worst, MaxProposalBytes, MaxProposalBytes/component.DefaultFragSize, component.DefaultFragSize)
	}
	return nil
}

// EncodeBatch serializes a proposal batch: u16 count, then u16-length-
// prefixed transactions. An empty batch encodes to a 2-byte header, so a
// node with nothing to propose still participates in the epoch.
func EncodeBatch(txs [][]byte) []byte {
	out := binary.BigEndian.AppendUint16(nil, uint16(len(txs)))
	for _, tx := range txs {
		out = binary.BigEndian.AppendUint16(out, uint16(len(tx)))
		out = append(out, tx...)
	}
	return out
}

var errBadBatch = errors.New("protocol: malformed proposal batch")

// DecodeBatch parses EncodeBatch's format, rejecting trailing garbage.
func DecodeBatch(raw []byte) ([][]byte, error) {
	if len(raw) < 2 {
		return nil, errBadBatch
	}
	count := int(binary.BigEndian.Uint16(raw))
	raw = raw[2:]
	// Every transaction takes at least its length prefix: a count the body
	// cannot hold is refused before it sizes anything.
	if count > len(raw)/2 {
		return nil, errBadBatch
	}
	txs := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(raw) < 2 {
			return nil, errBadBatch
		}
		n := int(binary.BigEndian.Uint16(raw))
		raw = raw[2:]
		if len(raw) < n {
			return nil, errBadBatch
		}
		txs = append(txs, raw[:n])
		raw = raw[n:]
	}
	if len(raw) != 0 {
		return nil, errBadBatch
	}
	return txs, nil
}

// SealLen is the length of the binding digest a plaintext proposal carries
// after its batch (SealBatch).
const SealLen = 16

// SealBatch appends a plaintext batch's binding digest: a truncated
// SHA-256 of the encoded batch. It plays the ciphertext tag's role for
// engines that propose in the clear. A proposal reassembled from fragments
// of two different values — an equivocating proposer's variant mixed with
// its original — can parse as a batch, but it fails its seal, so every
// honest node drops it alike at commit (OpenBatch). The seal binds a batch
// to itself, not to its clients: a proposer that builds a well-sealed batch
// of transactions nobody submitted is the client-authentication problem.
//
// The empty batch (EncodeBatch(nil)) goes unsealed: it has no transaction
// to forge, and no mix of it with a variant parses. Sealing it too (2
// bytes growing to 18) stretched the clustered baseline's depth-2 runs by
// a third or more.
func SealBatch(batch []byte) []byte {
	if isEmptyBatch(batch) {
		return batch
	}
	d := batchSeal(batch)
	return append(batch, d[:]...)
}

var errBadSeal = errors.New("protocol: proposal batch fails its seal")

// OpenBatch checks a sealed batch's digest and decodes the batch.
func OpenBatch(sealed []byte) ([][]byte, error) {
	if isEmptyBatch(sealed) {
		return DecodeBatch(sealed)
	}
	if len(sealed) < SealLen {
		return nil, errBadSeal
	}
	body := sealed[:len(sealed)-SealLen]
	if d := batchSeal(body); string(d[:]) != string(sealed[len(body):]) {
		return nil, errBadSeal
	}
	return DecodeBatch(body)
}

func isEmptyBatch(b []byte) bool { return len(b) == 2 && b[0] == 0 && b[1] == 0 }

func batchSeal(batch []byte) [SealLen]byte {
	h := sha256.New()
	h.Write([]byte("protocol-batch-seal"))
	h.Write(batch)
	var full [sha256.Size]byte
	h.Sum(full[:0])
	return [SealLen]byte(full[:SealLen])
}

// CheckLogs verifies SMR safety across nodes: every node's log must be
// gap-free from epoch 0 and identical to the others' over the shared
// prefix. Exported for the property tests and the ChainRun driver.
func CheckLogs(chains []*Chain) error {
	var ref *Chain
	for _, c := range chains {
		if c == nil {
			continue
		}
		for i, entry := range c.log {
			if entry.Epoch != i {
				return fmt.Errorf("protocol: node %d log has gap: entry %d is epoch %d", c.env.Me, i, entry.Epoch)
			}
		}
		if ref == nil {
			ref = c
			continue
		}
		n := len(ref.log)
		if len(c.log) < n {
			n = len(c.log)
		}
		for i := 0; i < n; i++ {
			a, b := ref.log[i], c.log[i]
			if len(a.Txs) != len(b.Txs) {
				return fmt.Errorf("protocol: epoch %d: node %d committed %d txs, node %d committed %d",
					i, ref.env.Me, len(a.Txs), c.env.Me, len(b.Txs))
			}
			for j := range a.Txs {
				if string(a.Txs[j]) != string(b.Txs[j]) {
					return fmt.Errorf("protocol: epoch %d tx %d differs between nodes %d and %d", i, j, ref.env.Me, c.env.Me)
				}
			}
		}
	}
	return nil
}
