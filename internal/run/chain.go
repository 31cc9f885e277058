package run

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// SingleHop × Chain: a sustained multi-epoch SMR simulation — N Chain
// engines on one lossy wireless channel, fed continuous client traffic,
// running until every correct node has committed the target number of
// epochs. SingleHop × OneShot is the same run at depth 1, fed fixed
// batches instead (oneshot.go).
//
// The Scenario supports the full vocabulary including mid-run recovery: a
// crash pauses a node with all its state (node.Node.Crash), and a
// recovered node resumes its epochs where it stopped and catches up
// through core.Mux.OnUnknownEpoch and the state its NACK rows ask its
// peers for.
// Peers serve repairs only for epochs their GC hasn't closed; the GC waits
// for a crashed node's epoch for up to 8 × (Window + 2) epochs
// (protocol.Chain), so an outage the peers commit more epochs during leaves
// the node unable to catch up (a deadline error). byz events arm
// active-Byzantine behaviors (up to f nodes); the completion barrier and
// log checks then cover honest nodes only.

// chainConfig builds the per-node engine config from the Spec's workload.
func chainConfig(spec Spec) (protocol.ChainConfig, error) {
	ccfg := protocol.ChainConfig{
		Protocol:  spec.Protocol,
		Coin:      spec.Coin,
		Encrypt:   spec.Encrypt,
		Window:    spec.Workload.Window,
		MaxEpochs: spec.Workload.Epochs,
		Mempool:   spec.Workload.Mempool,
	}
	txSize := spec.Workload.TxSize
	if spec.Workload.Kind == LoadOneShot {
		txSize = slices.Min(oneShotBatch(spec))
	}
	if max := ccfg.Mempool.WithDefaults().MaxBatchBytes; txSize > max {
		return ccfg, fmt.Errorf("run: TxSize %d exceeds proposal cap MaxBatchBytes %d", txSize, max)
	}
	if ccfg.Window > protocol.MaxWindow {
		return ccfg, fmt.Errorf("run: Window %d exceeds %d, the deepest pipeline the commit dedup covers", ccfg.Window, protocol.MaxWindow)
	}
	return ccfg, ccfg.CheckProposalSize(txSize)
}

// chainGroup is a consensus group running the SMR pipeline: one
// protocol.Chain per node. The single-hop cell is one chainGroup; the
// clustered cell is M of them plus one over the seats, whose clients are
// the clusters' cut relays (mhchain.go).
type chainGroup struct {
	*group
	chains []*protocol.Chain
	// byz marks the members outside every check: safety is an honest-node
	// property, and a Byzantine node's own log is not bound by what it
	// told its peers.
	byz []bool
	// live marks the honest members not scripted to stay down: the
	// completion barrier, the reference node and the reported logs.
	live []bool
	// maxOpen is the pipeline-depth high-water mark (see observe).
	maxOpen int
}

// newChainGroup runs a chain on every node of g. Member i is Byzantine if
// byz holds base+i, and scripted to stay down if gone does.
func newChainGroup(g *group, ccfg protocol.ChainConfig, base int, byz, gone map[int]bool) *chainGroup {
	cg := &chainGroup{group: g}
	for i, n := range g.nodes {
		cg.chains = append(cg.chains, protocol.NewChain(*n.Env(len(g.nodes)), n.Mux(), ccfg))
		cg.byz = append(cg.byz, byz[base+i])
		cg.live = append(cg.live, !byz[base+i] && !gone[base+i])
	}
	return cg
}

// observe folds chain i's current pipeline depth into the high-water
// mark; the local tiers call it from OnCommit.
func (g *chainGroup) observe(i int) {
	if o := g.chains[i].OpenEpochs(); o > g.maxOpen {
		g.maxOpen = o
	}
}

// done reports whether every live member has committed target epochs.
func (g *chainGroup) done(target int) bool {
	for i, c := range g.chains {
		if g.live[i] && c.CommittedEpochs() < target {
			return false
		}
	}
	return true
}

// committed returns the lowest commit frontier of a live member
// (math.MaxInt for a group with none).
func (g *chainGroup) committed() int {
	low := math.MaxInt
	for i, c := range g.chains {
		if g.live[i] {
			low = min(low, c.CommittedEpochs())
		}
	}
	return low
}

// submit broadcasts one client transaction to the mempool of every member
// on the air. A node that is down misses the submissions of its outage
// (clients cannot reach it), which commit-time dedup makes harmless.
func (g *chainGroup) submit(tx []byte) {
	for i, c := range g.chains {
		if !g.nodes[i].Down() {
			c.Submit(tx)
		}
	}
}

// check verifies SMR safety over the group's honest members: gap-free
// logs, identical over every shared prefix.
func (g *chainGroup) check() error {
	honest := make([]*protocol.Chain, len(g.chains))
	for i, c := range g.chains {
		if !g.byz[i] {
			honest[i] = c
		}
	}
	if err := protocol.CheckLogs(honest); err != nil {
		return fmt.Errorf("safety violation: %w", err)
	}
	return nil
}

// ref returns the first live member's chain — the node the commit
// counters are read from — or nil if the group has none.
func (g *chainGroup) ref() *protocol.Chain {
	for i, c := range g.chains {
		if g.live[i] {
			return c
		}
	}
	return nil
}

// logs returns each live member's committed log (nil for the others).
func (g *chainGroup) logs() [][]protocol.LogEntry {
	out := make([][]protocol.LogEntry, len(g.chains))
	for i, c := range g.chains {
		if g.live[i] {
			out[i] = c.Log()
		}
	}
	return out
}

func (g *chainGroup) frontiers() []int {
	out := make([]int, len(g.chains))
	for i, c := range g.chains {
		out[i] = c.CommittedEpochs()
	}
	return out
}

// localsDone is the client-visible completion point: every live member of
// every local group has committed the target.
func localsDone(locals []*chainGroup, target int) bool {
	for _, g := range locals {
		if !g.done(target) {
			return false
		}
	}
	return true
}

// startClients arms the run's one client process. Every arrival hands
// each local group its own transaction, broadcast to the group's live
// mempools; sequence numbers are deployment-global so payloads are
// distinct across clusters, and arrival k's transaction for group c is
// number k*len(locals)+c. Offered load is sustained — arrivals only cease
// once every local group has reached the target. Whatever the chains
// cannot absorb stays behind as mempool backlog (SubmittedTxs -
// CommittedTxs) or, under a MaxPendingBytes cap, as counted admission
// rejections — not silent loss. The process is the fixed TxInterval one
// unless Workload.Arrival selects a seed-derived client population.
func startClients(sched *sim.Scheduler, spec Spec, locals []*chainGroup) *traffic.Gen {
	submit := func(seq int) bool {
		if localsDone(locals, spec.Workload.Epochs) {
			return false
		}
		for c, g := range locals {
			g.submit(protocol.MakeClientTx(seq*len(locals)+c, spec.Workload.TxSize))
		}
		return true
	}
	gen := traffic.NewFixed(sched, spec.Workload.TxInterval, submit)
	if spec.Workload.Arrival.Enabled() {
		gen = traffic.New(sched, spec.Workload.Arrival, spec.Seed, submit)
	}
	gen.Start()
	return gen
}

// chainReport folds the local groups into the Report's Chain section:
// the commit counters of one reference member per group (logs are
// identical within a group, and check has run), summed across groups.
func chainReport(rep *Report, locals []*chainGroup, target int, gen *traffic.Gen) *ChainReport {
	cr := &ChainReport{EpochsCommitted: target, SubmittedTxs: gen.Submitted() * len(locals)}
	rep.Chain = cr
	var latSum time.Duration
	for _, g := range locals {
		cr.Logs = append(cr.Logs, g.logs()...)
		if g.maxOpen > cr.MaxOpenEpochs {
			cr.MaxOpenEpochs = g.maxOpen
		}
		if ref := g.ref(); ref != nil {
			cr.CommittedTxs += ref.CommittedTxs()
			cr.CommittedBytes += ref.CommittedBytes()
			cr.DedupDropped += ref.DedupDropped()
			latSum += ref.MeanCommitLatency()
		}
	}
	cr.MeanCommitLatency = latSum / time.Duration(len(locals))
	if rep.Duration > 0 {
		cr.ThroughputBps = float64(cr.CommittedBytes) / rep.Duration.Seconds()
	}
	return cr
}

// runChain executes the SingleHop × Chain cell. It fails if any correct
// pair of nodes commits diverging logs, if a log has a gap, or if the
// deadline passes before every correct node commits the target.
func runChain(spec Spec) (*Report, error) {
	perma := spec.Scenario.DownForever()
	if len(perma) >= spec.N {
		return nil, fmt.Errorf("run: all %d nodes crashed; nothing to run", spec.N)
	}
	ccfg, err := chainConfig(spec)
	if err != nil {
		return nil, err
	}
	d, err := newDeployment(spec)
	if err != nil {
		return nil, err
	}
	g := newChainGroup(d.locals[0], ccfg, 0, d.byz, perma)
	for i, c := range g.chains {
		c.OnCommit = func(int) { g.observe(i) }
	}
	// Recovery is mid-run: a crash pauses the node and its chain engine,
	// which resumes where it stopped and catches up on the live pipeline.
	d.wire(lifecycle{})
	locals := []*chainGroup{g}
	clock := newEpochClock(spec)
	var gen *traffic.Gen
	if clock != nil {
		seedOneShot(spec, locals)
	} else {
		gen = startClients(d.sched, spec, locals)
	}
	for _, c := range g.chains {
		c.Start()
	}

	target := spec.Workload.Epochs
	done := func() bool { return g.done(target) }
	if clock != nil {
		done = func() bool {
			clock.tick(d.sched.Now(), g.committed())
			return g.done(target)
		}
	}
	if err := node.Drive(d.sched, spec.Deadline, done); err != nil {
		return nil, fmt.Errorf("run: chain run (%s %s batched=%v depth=%d) at frontier %v: %w",
			spec.Protocol, spec.Coin, spec.Batched, spec.Workload.Window, g.frontiers(), err)
	}
	if err := g.check(); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	rep := spec.report()
	d.fold(rep)
	if clock != nil {
		clock.report(rep, locals)
		return rep, nil
	}
	cr := chainReport(rep, locals, target, gen)
	// The client-visible per-transaction measurements are the single-hop
	// cell's: one group, one client stream, one reference mempool.
	for i, c := range g.chains {
		if peak := c.Mempool().PeakPoolBytes(); g.live[i] && peak > cr.PeakMempoolBytes {
			cr.PeakMempoolBytes = peak
		}
	}
	if ref := g.ref(); ref != nil {
		cr.TxLatency = NewLatencyStats(ref.TxLatencies())
		cr.TxLatencySample = ref.TxLatencies()
		cr.AdmissionRejected = ref.Mempool().RejectedFull()
	}
	return rep, nil
}
