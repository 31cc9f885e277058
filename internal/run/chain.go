package run

import (
	"fmt"
	"time"

	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/wireless"
)

// SingleHop × Chain: a sustained multi-epoch SMR simulation — N Chain
// engines on one lossy wireless channel, fed continuous client traffic,
// running until every correct node has committed the target number of
// epochs.
//
// The Scenario supports the full vocabulary including mid-run recovery: a
// recovered node restarts its chain engine at the commit frontier (its
// log and mempool digests are stable storage) and catches up through
// core.Mux.OnUnknownEpoch and peers' NACK retransmissions. Mind GCLag:
// peers serve repairs only for epochs the GC hasn't closed, so recovery
// gaps longer than GCLag epochs leave the node unable to catch up (a
// deadline error). byz events arm active-Byzantine behaviors (up to F
// nodes); the completion barrier and log checks then cover honest nodes
// only.

// chainConfig builds the per-node engine config from the Spec's workload.
func chainConfig(spec Spec) (protocol.ChainConfig, error) {
	ccfg := protocol.DefaultChainConfig(spec.Protocol, spec.Coin)
	ccfg.Batched = spec.Batched
	ccfg.Encrypt = spec.Encrypt
	ccfg.Window = spec.Workload.Window
	ccfg.GCLag = spec.Workload.GCLag
	ccfg.MaxEpochs = spec.Workload.Epochs
	ccfg.Mempool = spec.Workload.Mempool
	if max := ccfg.Mempool.WithDefaults().MaxBatchBytes; spec.Workload.TxSize > max {
		return ccfg, fmt.Errorf("run: TxSize %d exceeds proposal cap MaxBatchBytes %d", spec.Workload.TxSize, max)
	}
	return ccfg, ccfg.CheckProposalSize(spec.Workload.TxSize)
}

// runChain executes the SingleHop × Chain cell. It fails if any correct
// pair of nodes commits diverging logs, if a log has a gap, or if the
// deadline passes before every correct node commits the target.
func runChain(spec Spec) (*Report, error) {
	byzN := spec.Scenario.ByzNodes()
	if err := byzPerGroup(byzN, 1, spec.N, spec.F); err != nil {
		return nil, err
	}
	perma := spec.Scenario.DownForever()
	if len(perma) >= spec.N {
		return nil, fmt.Errorf("run: all %d nodes crashed; nothing to run", spec.N)
	}
	sched := sim.New(spec.Seed)
	ch := wireless.NewChannel(sched, spec.Net)

	suites, err := crypto.DealCached(spec.N, spec.F, spec.Crypto, spec.Seed^0x5eed)
	if err != nil {
		return nil, err
	}

	ccfg, err := chainConfig(spec)
	if err != nil {
		return nil, err
	}
	ncfg := node.Config{Transport: spec.Transport, Batched: spec.Batched, Seed: spec.Seed}
	nodes := make([]*node.Node, spec.N)
	chains := make([]*protocol.Chain, spec.N)
	maxOpen := 0
	for i := 0; i < spec.N; i++ {
		nodes[i] = node.NewMux(sched, ch, wireless.NodeID(i), suites[i], ncfg)
		c := protocol.NewChain(sched, nodes[i].CPU, nodes[i].Mux(), suites[i], spec.N, spec.F, i,
			nodes[i].TransportConfig().Session, nodes[i].Rand, ccfg)
		c.OnCommit = func(int) {
			if o := c.OpenEpochs(); o > maxOpen {
				maxOpen = o
			}
		}
		chains[i] = c
	}
	// Unlike the one-shot drivers, recovery here is mid-run: the chain
	// engine resumes at its commit frontier and catches up on the live
	// pipeline.
	eng := scenario.Start(sched, spec.Scenario, spec.Seed, lifecycle{
		nodes:     nodes,
		crashed:   func(i int) { chains[i].Crash() },
		recovered: func(i int) { chains[i].Recover() },
	})
	ch.SetDeliveryHook(eng.Hook())

	// Client workload: sustained offered load broadcast to every live
	// node's mempool — injection only ceases with the run itself.
	// Whatever the chain cannot absorb stays behind as mempool backlog
	// (SubmittedTxs - CommittedTxs) or, under a MaxPendingBytes cap, as
	// counted admission rejections — not silent loss. A node that is down
	// misses the submissions of its outage (clients cannot reach it),
	// which commit-time dedup makes harmless. The legacy workload is one
	// transaction every TxInterval; Workload.Arrival swaps in the
	// open-loop generator (Poisson or bursty on-off client population).
	target := spec.Workload.Epochs
	chainsDone := func() bool {
		for i, c := range chains {
			if perma[i] || byzN[i] {
				continue // dead or Byzantine; the barrier covers honest nodes
			}
			if c.CommittedEpochs() < target {
				return false
			}
		}
		return true
	}
	submitted := 0
	submitTx := func(seq int) bool {
		if chainsDone() {
			return false
		}
		tx := protocol.MakeClientTx(seq, spec.Workload.TxSize)
		for i, c := range chains {
			if !nodes[i].Down() {
				c.Submit(tx)
			}
		}
		return true
	}
	var gen *traffic.Gen
	if spec.Workload.Arrival.Enabled() {
		gen = traffic.New(sched, spec.Workload.Arrival, spec.Seed, submitTx)
		gen.Start()
	} else {
		var inject func()
		inject = func() {
			if !submitTx(submitted) {
				return
			}
			submitted++
			sched.PostAfter(spec.Workload.TxInterval, inject)
		}
		sched.PostAfter(100*time.Millisecond, inject)
	}
	for _, c := range chains {
		c.Start()
	}

	if err := node.Drive(sched, spec.Deadline, chainsDone); err != nil {
		return nil, fmt.Errorf("run: chain run (%s %s batched=%v depth=%d) at frontier %v: %w",
			spec.Protocol, spec.Coin, spec.Batched, spec.Workload.Window, frontiers(chains), err)
	}
	if gen != nil {
		submitted = gen.Submitted()
	}
	rep := spec.report()
	cr := &ChainReport{
		EpochsCommitted: target,
		SubmittedTxs:    submitted,
		MaxOpenEpochs:   maxOpen,
		Logs:            make([][]protocol.LogEntry, spec.N),
	}
	rep.Chain = cr
	rep.Duration = sched.Now()
	// Safety is an honest-node property: a Byzantine node's own log is
	// not bound by what it told its peers, so it is excluded here.
	honest := make([]*protocol.Chain, len(chains))
	for i, c := range chains {
		if !byzN[i] {
			honest[i] = c
		}
	}
	if err := protocol.CheckLogs(honest); err != nil {
		return nil, err
	}
	first := true
	for i, c := range chains {
		if perma[i] || byzN[i] {
			continue
		}
		cr.Logs[i] = c.Log()
		if peak := c.Mempool().PeakPoolBytes(); peak > cr.PeakMempoolBytes {
			cr.PeakMempoolBytes = peak
		}
		if first {
			first = false
			cr.CommittedTxs = c.CommittedTxs()
			cr.CommittedBytes = c.CommittedBytes()
			cr.MeanCommitLatency = c.MeanCommitLatency()
			cr.DedupDropped = c.DedupDropped()
			cr.TxLatency = NewLatencyStats(c.TxLatencies())
			cr.TxLatencySample = c.TxLatencies()
			cr.AdmissionRejected = c.Mempool().RejectedFull()
		}
	}
	if rep.Duration > 0 {
		cr.ThroughputBps = float64(cr.CommittedBytes) / rep.Duration.Seconds()
	}
	st := ch.Stats()
	rep.Accesses = st.Accesses
	rep.Collisions = st.Collisions
	rep.Frames = st.Frames
	rep.BytesOnAir = st.BytesOnAir
	foldNodeStats(rep, nodes)
	return rep, nil
}

func frontiers(chains []*protocol.Chain) []int {
	out := make([]int, 0, len(chains))
	for _, c := range chains {
		if c != nil {
			out = append(out, c.CommittedEpochs())
		}
	}
	return out
}
