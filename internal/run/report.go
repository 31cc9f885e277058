package run

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// Report is the one result type every matrix cell produces. The flat
// fields are universal (virtual time and whole-deployment channel,
// transport, and crypto counters — both tiers included under the
// clustered topology); the optional sections carry the axis-specific
// measurements and are nil for cells they do not apply to.
//
// The JSON encoding is the stable schema the BENCH trajectory files and
// EXPERIMENTS.md document once: field names are fixed, durations are
// integer nanoseconds (suffix _ns), and the optional sections are
// omitted when absent.
type Report struct {
	// Axes echo the Spec so a serialized Report is self-describing.
	Protocol string `json:"protocol"`
	Coin     string `json:"coin"`
	Batched  bool   `json:"batched"`
	Topology string `json:"topology"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	// Duration is the run's total virtual time.
	Duration time.Duration `json:"duration_ns"`

	// Channel counters (the paper's contention metrics), summed across
	// every channel of the deployment.
	Accesses   uint64 `json:"accesses"`
	Collisions uint64 `json:"collisions"`
	Frames     uint64 `json:"frames"`
	BytesOnAir uint64 `json:"bytes_on_air"`
	// Held is the medium time between channel wins and first bits: a
	// station holds the medium it won while its frame's signature is
	// still being computed (wireless.Stats.Held).
	Held time.Duration `json:"held_ns"`

	// Transport and crypto counters, summed across all nodes (and
	// global-tier seats).
	LogicalSent uint64 `json:"logical_sent"`
	SignOps     uint64 `json:"sign_ops"`
	VerifyOps   uint64 `json:"verify_ops"`
	// Rejected counts component-level discards of invalid inbound state
	// across all nodes — the volume of Byzantine traffic the defenses
	// absorbed (zero in honest runs).
	Rejected uint64 `json:"rejected"`
	// EntryBytes is the entry-byte ledger summed across all nodes: the
	// bytes entries added to logical packets by kind, phase and send class
	// (first send, asked by a peer's NACK row, or timer). Omitted from
	// JSON, like Chain.Logs.
	EntryBytes *core.EntryBytes `json:"-"`

	// OneShot is present for one-shot workloads.
	OneShot *OneShotReport `json:"oneshot,omitempty"`
	// Chain is present for chain workloads.
	Chain *ChainReport `json:"chain,omitempty"`
	// Tiers is present for the clustered topology.
	Tiers *TierReport `json:"tiers,omitempty"`
}

// OneShotReport carries the one-shot workload's measurements, taken from
// commit (single-hop) or beacon (clustered) instants: EpochLatencies[e] is
// t(e) − t(e−1), where t(e) is when epoch e counts as done (oneshot.go).
type OneShotReport struct {
	EpochLatencies []time.Duration `json:"epoch_latencies_ns"`
	MeanLatency    time.Duration   `json:"mean_latency_ns"`
	// TPM is DeliveredTxs per minute of the summed EpochLatencies.
	TPM float64 `json:"tpm"`
	// DeliveredTxs counts the transactions every group committed.
	DeliveredTxs int `json:"delivered_txs"`
}

// ChainReport carries the sustained-SMR measurements. Under the clustered
// topology the commit counters aggregate one reference honest node per
// cluster (the logs are identical within a cluster; the driver checks them
// with protocol.CheckLogs before the Report is built).
type ChainReport struct {
	EpochsCommitted int    `json:"epochs_committed"`
	CommittedTxs    int    `json:"committed_txs"`
	CommittedBytes  uint64 `json:"committed_bytes"`
	// ThroughputBps is committed payload bytes per virtual second — the
	// sustained-SMR metric (contrast with the one-shot TPM).
	ThroughputBps float64 `json:"throughput_Bps"`
	// MeanCommitLatency is the mean epoch start->commit time at the
	// reference node. Under pipelining, epochs overlap, so commit latency
	// exceeds the per-epoch interval Duration/EpochsCommitted.
	MeanCommitLatency time.Duration `json:"commit_latency_ns"`
	DedupDropped      int           `json:"dedup_dropped"`
	// SubmittedTxs counts client transactions offered over the whole run.
	// Offered load normally exceeds what the target can order; the
	// shortfall is mempool backlog at run end (or admission rejections
	// under backpressure), not transaction loss.
	SubmittedTxs  int `json:"submitted_txs"`
	MaxOpenEpochs int `json:"max_open_epochs"`

	// TxLatency summarizes true per-transaction submit->commit latency at
	// the reference node (percentiles over every transaction it admitted
	// and later committed). MeanCommitLatency above is epoch-granularity
	// and must not be read as client-visible latency: under bursty load a
	// transaction can wait in the pool across many epochs before a cut
	// takes it, and only this sample sees that wait. Nil when the
	// reference node committed none of its admissions (single-hop chain
	// runs always populate it).
	TxLatency *LatencyStats `json:"tx_latency,omitempty"`
	// TxLatencySample is the raw sample TxLatency summarizes, in commit
	// order. Omitted from JSON (like Logs): the BENCH files carry
	// aggregates; callers bin it with Histogram when they want the shape.
	TxLatencySample []time.Duration `json:"-"`
	// AdmissionRejected counts client submissions the reference node's
	// mempool refused under the MempoolConfig.MaxPendingBytes
	// backpressure cap (zero with the cap disabled, the default).
	AdmissionRejected int `json:"admission_rejected,omitempty"`
	// PeakMempoolBytes is the highest pooled payload byte count any
	// honest node reached — the bounded-mempool-growth evidence under
	// open-loop overload.
	PeakMempoolBytes int `json:"peak_mempool_bytes,omitempty"`

	// Logs holds each honest node's committed log, indexed by flat node
	// id (nil for nodes scripted to stay crashed or to turn Byzantine),
	// already checked for agreement and gap-freedom. Omitted from JSON:
	// the BENCH files carry aggregates, not payloads.
	Logs [][]protocol.LogEntry `json:"-"`
}

// TierReport splits the clustered topology's per-tier counters out of the
// flat aggregates (which include both tiers).
type TierReport struct {
	LocalAccesses  uint64 `json:"local_accesses"`
	GlobalAccesses uint64 `json:"global_accesses"`
	// GlobalLogicalSent counts the signed logical packets of the global
	// tier alone (also included in the flat LogicalSent).
	GlobalLogicalSent uint64 `json:"global_logical_sent"`

	// The Clustered × Chain cell additionally reports the cross-cluster
	// total order built on the global tier.
	// GlobalEntries is the reference seat's global log length (epochs of
	// the global chain).
	GlobalEntries int `json:"global_entries,omitempty"`
	// OrderedCuts counts certificate-verified cluster-cut records in the
	// global total order (rejected records are excluded; see CutCerts).
	OrderedCuts int `json:"ordered_cuts,omitempty"`
	// CutCerts carries the Clustered × Chain cell's cut-certificate
	// counters: threshold ops charged for signing/verifying/combining cut
	// certificates and the committed records rejected as forged or
	// unsigned.
	CutCerts *CutCertStats `json:"cut_certs,omitempty"`
	// GlobalLogs holds each untainted seat's global log, indexed by
	// cluster (nil for tainted seats). Omitted from JSON.
	GlobalLogs [][]protocol.LogEntry `json:"-"`
}

// WriteJSON writes the Report's stable JSON encoding (indented).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// axes stamps the Spec's axes into a fresh Report.
func (s Spec) report() *Report {
	return &Report{
		Protocol: string(s.Protocol),
		Coin:     string(s.Coin),
		Batched:  s.Batched,
		Topology: string(s.Topology.Kind),
		Workload: string(s.Workload.Kind),
		Seed:     s.Seed,
	}
}
