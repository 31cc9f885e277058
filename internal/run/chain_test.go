package run

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/scenario"
)

func quickChainSpec(p protocol.Kind, coin protocol.CoinKind, batched bool, seed int64) Spec {
	spec := Defaults(p, coin)
	spec.Batched = batched
	spec.Workload = Chain(20)
	spec.Seed = seed
	return spec
}

// TestChainPipelinedLossy is the acceptance run: >= 20 epochs at pipeline
// depth 2 on the lossy default channel, for both ConsensusBatcher and the
// baseline transport; all correct nodes must commit identical, gap-free
// logs (Run fails otherwise).
func TestChainPipelinedLossy(t *testing.T) {
	for _, batched := range []bool{true, false} {
		batched := batched
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			t.Parallel()
			spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, batched, 1)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Chain.EpochsCommitted < 20 {
				t.Fatalf("committed %d epochs, want >= 20", res.Chain.EpochsCommitted)
			}
			if res.Chain.CommittedTxs == 0 || res.Chain.ThroughputBps <= 0 {
				t.Fatalf("no sustained throughput: %+v", res.Chain)
			}
			t.Logf("batched=%v: %d epochs, %d txs, %.1f B/s, commit latency %v, dedup dropped %d",
				batched, res.Chain.EpochsCommitted, res.Chain.CommittedTxs, res.Chain.ThroughputBps,
				res.Chain.MeanCommitLatency.Round(time.Millisecond), res.Chain.DedupDropped)
		})
	}
}

// TestChainAllVariantsLossy runs multi-epoch SMR agreement for all five
// protocol variants on the lossy channel.
func TestChainAllVariantsLossy(t *testing.T) {
	for i, v := range paperVariants {
		v, i := v, i
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			spec := quickChainSpec(v.Kind, v.Coin, true, 40+int64(i))
			spec.Workload.Epochs = 6
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Chain.CommittedTxs == 0 {
				t.Error("no transactions committed")
			}
			t.Logf("%s: %d txs in %v (%.1f B/s)", v.Name, res.Chain.CommittedTxs,
				res.Duration.Round(time.Second), res.Chain.ThroughputBps)
		})
	}
}

// TestChainDeeperPipelineKeepsAgreement raises the depth beyond 2.
func TestChainDeeperPipelineKeepsAgreement(t *testing.T) {
	spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 3)
	spec.Workload.Window = 4
	spec.Workload.Epochs = 10
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.MaxOpenEpochs <= 1 {
		t.Errorf("pipeline never overlapped: max open epochs %d", res.Chain.MaxOpenEpochs)
	}
}

// TestChainWithCrashFault checks sustained progress with f crashed nodes.
func TestChainWithCrashFault(t *testing.T) {
	spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 4)
	spec.Workload.Epochs = 5
	spec.Scenario = scenario.Crash(3)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.CommittedTxs == 0 {
		t.Error("no transactions committed with a crashed node")
	}
	if res.Chain.Logs[3] != nil {
		t.Error("crashed node produced a log")
	}
}

// TestChainDeterministic: same seed, same log and measurements.
func TestChainDeterministic(t *testing.T) {
	spec := quickChainSpec(protocol.DumboKind, protocol.CoinSig, true, 5)
	spec.Workload.Epochs = 4
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Chain.CommittedTxs != b.Chain.CommittedTxs || a.Accesses != b.Accesses {
		t.Errorf("same seed differs: %v/%d/%d vs %v/%d/%d",
			a.Duration, a.Chain.CommittedTxs, a.Accesses, b.Duration, b.Chain.CommittedTxs, b.Accesses)
	}
}

// TestChainEpochGC: open epoch state stays bounded by the GC lag, not the
// chain length.
func TestChainEpochGC(t *testing.T) {
	spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 6)
	spec.Workload.Epochs = 12
	spec.Workload.Window = 2
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	lag := spec.Workload.Window + 2
	if res.Chain.MaxOpenEpochs > lag+spec.Workload.Window+1 {
		t.Errorf("max open epochs %d exceeds GC bound %d",
			res.Chain.MaxOpenEpochs, lag+spec.Workload.Window+1)
	}
}

// TestChainDedup: every client tx is broadcast to all four mempools, so
// without commit-time dedup the log would repeat most payloads ~4x. A
// transaction reaches more than its own shard's proposal only through the
// crash fallback, once it has waited five minutes; node 3 is down the
// whole run, so its shard's transactions wait that long and then go into
// the three survivors' cuts alike.
func TestChainDedup(t *testing.T) {
	spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 7)
	spec.Workload.Epochs = 20
	spec.Scenario = scenario.Plan{}.Then(scenario.CrashAt(0, 3))
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkDedup(t, res)
}

// checkDedup fails t unless the commit dedup dropped something and node
// 0's log commits no transaction twice.
func checkDedup(t *testing.T, res *Report) {
	t.Helper()
	if res.Chain.DedupDropped == 0 {
		t.Error("commit dedup never triggered despite broadcast clients")
	}
	seen := map[string]bool{}
	for _, entry := range res.Chain.Logs[0] {
		for _, tx := range entry.Txs {
			if seen[string(tx)] {
				t.Fatalf("duplicate tx committed in epoch %d", entry.Epoch)
			}
			seen[string(tx)] = true
		}
	}
	if res.Chain.CommittedTxs > res.Chain.SubmittedTxs {
		t.Errorf("committed %d txs > submitted %d", res.Chain.CommittedTxs, res.Chain.SubmittedTxs)
	}
}

// TestChainDedupAtMaxWindow: at the deepest pipeline the commit dedup
// covers, Window = protocol.MaxWindow, no transaction commits twice —
// HB-SC, Dumbo-SC and Alea-SC, batched, 60 epochs, at two seeds, with
// every node live and with node 3 crashed from the start.
func TestChainDedupAtMaxWindow(t *testing.T) {
	for _, p := range []protocol.Kind{protocol.HoneyBadger, protocol.DumboKind, protocol.AleaKind} {
		for seed := int64(1); seed <= 2; seed++ {
			for _, crash := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/crash=%v", p, seed, crash), func(t *testing.T) {
					t.Parallel()
					spec := quickChainSpec(p, protocol.CoinSig, true, seed)
					spec.Workload = Chain(60)
					spec.Workload.Window = protocol.MaxWindow
					spec.Workload.TxInterval = 2 * time.Second
					if crash {
						spec.Scenario = scenario.Plan{}.Then(scenario.CrashAt(0, 3))
					}
					res, err := Run(spec)
					if err != nil {
						t.Fatal(err)
					}
					checkDedup(t, res)
					t.Logf("%d epochs committed, %d transactions dropped by the dedup",
						res.Chain.EpochsCommitted, res.Chain.DedupDropped)
				})
			}
		}
	}
}

// TestChainCrashRecovery is the crash-recovery acceptance run: node 2
// crashes around epoch 5 and recovers around epoch 10 of the batched run
// (about 60 s per epoch; the baseline's are some 3x longer). The recovered node must rejoin mid-run through
// core.Mux.OnUnknownEpoch, catch up on the epochs it lost through NACK
// retransmission and repair, and commit the same gap-free log as everyone
// else — under both transports.
func TestChainCrashRecovery(t *testing.T) {
	for _, batched := range []bool{true, false} {
		batched := batched
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			t.Parallel()
			spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, batched, 1)
			spec.Workload.Epochs = 14
			spec.Scenario = scenario.Plan{}.Then(
				scenario.CrashAt(5*time.Minute, 2),
				scenario.RecoverAt(10*time.Minute, 2),
			)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, log := range res.Chain.Logs {
				if len(log) != spec.Workload.Epochs {
					t.Fatalf("node %d committed %d epochs, want %d (recovered node must catch up)",
						i, len(log), spec.Workload.Epochs)
				}
				for e, entry := range log {
					if entry.Epoch != e {
						t.Fatalf("node %d log has a gap at %d (epoch %d)", i, e, entry.Epoch)
					}
				}
			}
			// The recovered node's log must be byte-identical to node 0's.
			for e := range res.Chain.Logs[0] {
				a, b := res.Chain.Logs[0][e], res.Chain.Logs[2][e]
				if len(a.Txs) != len(b.Txs) {
					t.Fatalf("epoch %d: node0 %d txs, recovered node %d txs", e, len(a.Txs), len(b.Txs))
				}
				for j := range a.Txs {
					if string(a.Txs[j]) != string(b.Txs[j]) {
						t.Fatalf("epoch %d tx %d differs between node 0 and the recovered node", e, j)
					}
				}
			}
			t.Logf("batched=%v: recovered node caught up; %d epochs in %v",
				batched, res.Chain.EpochsCommitted, res.Duration.Round(time.Second))
		})
	}
}

// TestChainCrashRecoveryAllFamilies runs the same crash-recovery scenario
// across the other protocol families (Dumbo's serial-ABA catch-up and
// BEAT's coin-flipping path are distinct code).
func TestChainCrashRecoveryAllFamilies(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind protocol.Kind
		coin protocol.CoinKind
	}{
		{"Dumbo-SC", protocol.DumboKind, protocol.CoinSig},
		{"BEAT", protocol.BEAT, protocol.CoinFlip},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := quickChainSpec(tc.kind, tc.coin, true, 2)
			spec.Workload.Epochs = 12
			spec.Scenario = scenario.Plan{}.Then(
				scenario.CrashAt(6*time.Minute, 1),
				scenario.RecoverAt(13*time.Minute, 1),
			)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Chain.Logs[1]) != spec.Workload.Epochs {
				t.Fatalf("recovered node committed %d epochs, want %d",
					len(res.Chain.Logs[1]), spec.Workload.Epochs)
			}
		})
	}
}

// TestChainPartitionHeals: a partition that splits the quorum stalls the
// asynchronous protocol (safety holds, liveness waits); healing it lets
// the run complete. The fault-free run takes under 3 minutes, so the
// partition starts at the first.
func TestChainPartitionHeals(t *testing.T) {
	spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 3)
	spec.Workload.Epochs = 8
	spec.Scenario = scenario.Plan{}.Then(
		scenario.PartitionAt(1*time.Minute, []int{0, 1}, []int{2, 3}),
		scenario.HealAt(31*time.Minute),
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The 30-minute partition must show up as lost time relative to the
	// fault-free run of the same seed.
	spec.Scenario = scenario.Plan{}
	free, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= free.Duration {
		t.Errorf("partitioned run (%v) not slower than fault-free (%v)", res.Duration, free.Duration)
	}
}

// TestChainScenarioDeterministic: the scenario engine (crash, recovery,
// catch-up, and the seed-derived adversary randomness) must not break
// run-level determinism.
func TestChainScenarioDeterministic(t *testing.T) {
	spec := quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 9)
	spec.Workload.Epochs = 10
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(5*time.Minute, 3),
		scenario.RecoverAt(10*time.Minute, 3),
		scenario.LossBurst(4*time.Minute, 3*time.Minute, 0.3),
	)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Chain.CommittedTxs != b.Chain.CommittedTxs || a.Accesses != b.Accesses {
		t.Errorf("scenario run not deterministic: %v/%d/%d vs %v/%d/%d",
			a.Duration, a.Chain.CommittedTxs, a.Accesses, b.Duration, b.Chain.CommittedTxs, b.Accesses)
	}
}

// TestChainRejectsUncarriableBatchCap: a MaxBatchBytes whose proposals
// could not fit one broadcast's 255 fragments is refused before the run
// starts, on both chain cells, instead of stalling an epoch mid-run.
func TestChainRejectsUncarriableBatchCap(t *testing.T) {
	for _, spec := range []Spec{
		quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1),
		quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 2, 1),
	} {
		spec.Workload.Mempool.MaxBatchBytes = protocol.MaxProposalBytes
		if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "MaxBatchBytes") {
			t.Errorf("%s x %s: MaxBatchBytes %d: err = %v", spec.Topology.Kind, spec.Workload.Kind,
				protocol.MaxProposalBytes, err)
		}
	}
}

// TestChainRejectsUndedupableWindow: a pipeline deeper than the commit
// dedup's horizon could commit a transaction twice — once in epoch e and
// again from a proposal cut for an epoch more than the horizon later,
// after the pool forgot its digest — so Run refuses it on both chain
// cells. The deepest window the horizon covers runs.
func TestChainRejectsUndedupableWindow(t *testing.T) {
	for _, spec := range []Spec{
		quickChainSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1),
		quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 2, 1),
	} {
		spec.Workload.Epochs = 2
		spec.Workload.Window = protocol.MaxWindow + 1
		if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "Window") {
			t.Errorf("%s x %s: Window %d: err = %v", spec.Topology.Kind, spec.Workload.Kind, spec.Workload.Window, err)
		}
		spec.Workload.Window = protocol.MaxWindow
		if _, err := Run(spec); err != nil {
			t.Errorf("%s x %s: Window %d: %v", spec.Topology.Kind, spec.Workload.Kind, spec.Workload.Window, err)
		}
	}
}
