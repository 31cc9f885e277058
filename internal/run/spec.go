// Package run is the unified experiment API: one entry point,
// Run(Spec) (*Report, error), over two orthogonal axes — Topology
// (single-hop or clustered two-tier) × Workload (one-shot epochs or
// sustained chain SMR) — plus the protocol, coin, transport, crypto,
// channel, and fault-scenario knobs every deployment shares.
//
// Every cell runs on one deployment skeleton (lifecycle.go): consensus
// groups — n nodes with dealt suites on one channel — wired to the
// scenario engine at a flat id base. Single-hop is the one-group case; the
// paper's Sec. V-B clustered topology is M local groups plus one more over
// the global-tier seats. Every group runs a chain (chain.go); the
// clustered driver composes M+1 of them, the seats' clients being the
// clusters' cut relays (mhchain.go). The workload picks what feeds the
// local chains: one client process (internal/traffic) for the chain
// workload, fixed batches for the one-shot workload, which is a depth-1
// chain (oneshot.go).
//
// Every run is a deterministic function of its Spec: the same Spec
// reproduces the same Report bit-for-bit, which the golden BENCH tests
// rely on.
package run

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/crypto"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/wireless"
)

// TopologyKind names the deployment shape.
type TopologyKind string

// The topology axis.
const (
	TopoSingleHop TopologyKind = "single-hop"
	TopoClustered TopologyKind = "clustered"
)

// Topology is one axis of the experiment matrix: how the nodes are laid
// out on the air. The zero value is single-hop.
type Topology struct {
	Kind TopologyKind
	// Clusters is M, the number of single-hop clusters (and global-tier
	// seats); it must be 3f_g+1. Clustered only.
	Clusters int
	// PerCluster is the cluster size N_i (must be 3f+1). Zero adopts
	// Spec.N; a non-zero value overrides it.
	PerCluster int
}

// SingleHop is the paper's base deployment: every node on one channel.
func SingleHop() Topology { return Topology{Kind: TopoSingleHop} }

// Clustered is the paper's Sec. V-B deployment: clusters single-hop
// clusters of perCluster nodes, each on its own channel, with one
// global-tier seat per cluster on a separate channel.
func Clustered(clusters, perCluster int) Topology {
	return Topology{Kind: TopoClustered, Clusters: clusters, PerCluster: perCluster}
}

// WorkloadKind names the traffic pattern.
type WorkloadKind string

// The workload axis.
const (
	LoadOneShot WorkloadKind = "oneshot"
	LoadChain   WorkloadKind = "chain"
)

// Workload is the other axis: what the consensus group is asked to order.
// Both workloads run on the chain drivers; the one-shot workload is a
// depth-1 chain of fixed proposals. The zero value is the one-shot
// workload with all defaults.
type Workload struct {
	Kind WorkloadKind
	// Epochs is the run length: every correct node commits this many
	// epochs (the target commit frontier); a one-shot chain starts no
	// epoch beyond it.
	Epochs int
	// BatchSize is the one-shot proposal size in transactions.
	BatchSize int
	// TxSize is the transaction size in bytes on the air: a chain
	// workload's payload size, a one-shot batch's share per transaction
	// (see OneShot).
	TxSize int
	// TxInterval is the gap of the chain workload's default client
	// process: one arrival 100 ms in, then one every TxInterval
	// (traffic.NewFixed). Each arrival is one transaction per consensus
	// group — the network under single-hop, each cluster under the
	// clustered topology — broadcast to the group's live mempools.
	TxInterval time.Duration
	// Arrival swaps the fixed process for a seed-derived one
	// (internal/traffic: Poisson or bursty on-off arrivals from a
	// simulated client population); arrivals fan out exactly as the fixed
	// ones do. Chain workload only; the zero value keeps the fixed
	// process.
	Arrival traffic.Pattern
	// Window is the chain pipeline depth (1 = sequential epochs, at most
	// protocol.MaxWindow); one-shot runs at 1. Per-epoch state is kept
	// Window + 2 epochs behind the commit frontier, at the least, to serve
	// NACK repairs; an epoch a peer is still in stays open up to eight
	// times as long (protocol.ChainConfig).
	Window int
	// Mempool tunes the chain proposal-cut policy; zero fields default.
	// One-shot sets its own (see OneShot).
	Mempool protocol.MempoolConfig
}

// OneShot is the paper's evaluation workload: epochs consensus epochs of
// fixed deterministic proposals, each timed on its own. It runs as a
// depth-1 chain capped at epochs: at t = 0 every member's unsharded pool
// gets its own epochs × BatchSize client transactions, and the pool cuts
// one batch per epoch (TargetBatchBytes = MaxBatchBytes = one batch), so
// epoch e proposes batch e, and a batch the common subset leaves out is
// proposed again in the next epoch. The payloads are sized so that a
// batch, framed and sealed (or, with Encrypt, framed for the ciphertext),
// is BatchSize × TxSize bytes on the air. Recovery is the chain's: a crash
// pauses a node, and one back mid-epoch resumes the epoch it crashed in.
func OneShot(epochs int) Workload {
	return Workload{Kind: LoadOneShot, Epochs: epochs, BatchSize: 4, TxSize: 64}
}

// Chain is the sustained SMR workload: continuous client traffic ordered
// into a replicated log until every correct node commits targetEpochs
// epochs, with a depth-2 pipeline.
func Chain(targetEpochs int) Workload {
	return Workload{
		Kind:       LoadChain,
		Epochs:     targetEpochs,
		TxSize:     64,
		TxInterval: 4 * time.Second,
		Window:     2,
	}
}

// Spec is one experiment: the full cross of the Topology × Workload axes
// with the shared protocol/transport/crypto/channel/fault knobs. Build it
// with Defaults and override fields; zero-valued tuning fields are
// normalized inside Run.
type Spec struct {
	Protocol protocol.Kind
	Coin     protocol.CoinKind
	// Batched selects ConsensusBatcher vs the per-instance baseline.
	Batched bool
	// Encrypt runs the threshold-encrypted proposal path (the censorship
	// defense). Only HoneyBadger and BEAT have one (Engine.DefaultEncrypt):
	// Defaults enables it for them, and Run refuses it for any other family.
	Encrypt bool
	// N sizes one consensus group: the whole network under single-hop,
	// each cluster under the clustered topology. It must be 3f+1 >= 4, and
	// the group tolerates f = (N-1)/3 faults (node.Faults).
	N int

	Topology Topology
	Workload Workload

	Seed   int64
	Net    wireless.Config
	Crypto crypto.Config
	// Scenario scripts faults into the run: crashes, recoveries,
	// partitions, loss/jam bursts, the asynchronous delay adversary, and
	// active-Byzantine behavior activation. The zero value is the
	// fault-free run. Node ids are flat across the deployment
	// (cluster*PerCluster + in-cluster index under the clustered
	// topology).
	Scenario scenario.Plan
	// Deadline bounds the whole run in virtual time. Zero picks the
	// workload default: Epochs × 60 min for one-shot, 8 h for a chain.
	Deadline time.Duration
}

// Defaults returns the paper-calibrated baseline Spec: single-hop
// one-shot, N=4, LoRa-class channel, light crypto, ConsensusBatcher on.
// This is the one defaults builder; select other matrix cells by
// replacing Topology and Workload (run.Clustered, run.Chain) — the
// workload-specific tuning defaults are filled in by Run.
func Defaults(p protocol.Kind, coin protocol.CoinKind) Spec {
	return Spec{
		Protocol: p,
		Coin:     coin,
		Batched:  true,
		Encrypt:  protocol.DefaultEncrypt(p),
		N:        4,
		Topology: SingleHop(),
		Workload: OneShot(3),
		Seed:     1,
		Net:      wireless.DefaultConfig(),
		Crypto:   crypto.LightConfig(),
	}
}

// normalize fills the Spec's zero-valued tuning fields with the workload
// defaults, so the one builder serves every matrix cell.
func (s Spec) normalize() Spec {
	if s.Topology.Kind == "" {
		s.Topology.Kind = TopoSingleHop
	}
	if s.Topology.Kind == TopoClustered {
		if s.Topology.PerCluster == 0 {
			s.Topology.PerCluster = s.N
		}
		s.N = s.Topology.PerCluster
	}
	if s.Workload.Kind == "" {
		s.Workload.Kind = LoadOneShot
	}
	if s.Workload.TxSize <= 0 {
		s.Workload.TxSize = 64
	}
	s.Workload.TxSize = max(s.Workload.TxSize, 12)
	switch s.Workload.Kind {
	case LoadOneShot:
		if s.Workload.Epochs <= 0 {
			s.Workload.Epochs = 3
		}
		if s.Workload.BatchSize <= 0 {
			s.Workload.BatchSize = 4
		}
		// A depth-1 chain whose unsharded pool cuts one batch at a time.
		batch := 0
		for _, size := range oneShotBatch(s) {
			batch += size
		}
		s.Workload.Window = 1
		s.Workload.Mempool = protocol.MempoolConfig{TargetBatchBytes: batch, MaxBatchBytes: batch, Shards: 1}
		if s.Deadline <= 0 {
			s.Deadline = time.Duration(s.Workload.Epochs) * time.Hour
		}
	case LoadChain:
		if s.Workload.Epochs <= 0 {
			s.Workload.Epochs = 1
		}
		if s.Workload.Window <= 0 {
			s.Workload.Window = 1
		}
		if s.Workload.TxInterval <= 0 {
			s.Workload.TxInterval = 4 * time.Second
		}
		s.Workload.Arrival = s.Workload.Arrival.WithDefaults()
		if s.Deadline <= 0 {
			s.Deadline = 8 * time.Hour
		}
	}
	return s
}

// validate rejects malformed axes before any virtual time elapses.
func (s Spec) validate() error {
	engine, ok := protocol.Lookup(s.Protocol)
	if !ok {
		return fmt.Errorf("run: unknown protocol %q", s.Protocol)
	}
	coin := s.Coin
	if coin == "" {
		coin = engine.Coin // the family's own, if it has one
	}
	if !slices.Contains(protocol.Coins(), coin) {
		return fmt.Errorf("run: unknown coin %q (coins: %v)", s.Coin, protocol.Coins())
	}
	if s.Encrypt && !engine.DefaultEncrypt {
		return fmt.Errorf("run: %s has no threshold-encrypted proposal path; Encrypt must be off", s.Protocol)
	}
	if s.N < 4 || s.N%3 != 1 {
		return fmt.Errorf("run: group size must be 3f+1 >= 4, got N=%d", s.N)
	}
	switch s.Topology.Kind {
	case TopoSingleHop:
	case TopoClustered:
		if s.Topology.Clusters < 4 || (s.Topology.Clusters-1)%3 != 0 {
			return fmt.Errorf("run: clusters must be 3f+1 >= 4, got %d", s.Topology.Clusters)
		}
	default:
		return fmt.Errorf("run: unknown topology %q", s.Topology.Kind)
	}
	switch s.Workload.Kind {
	case LoadOneShot, LoadChain:
	default:
		return fmt.Errorf("run: unknown workload %q", s.Workload.Kind)
	}
	if err := s.Workload.Arrival.Validate(); err != nil {
		return err
	}
	if s.Workload.Arrival.Enabled() && s.Workload.Kind != LoadChain {
		return fmt.Errorf("run: Arrival traffic requires the chain workload, got %q", s.Workload.Kind)
	}
	return nil
}

// Nodes returns the deployment's flat node count (the scenario id space)
// of a normalized Spec, whose clustered PerCluster is set.
func (s Spec) Nodes() int {
	if s.Topology.Kind == TopoClustered {
		return s.Topology.Clusters * s.Topology.PerCluster
	}
	return s.N
}
