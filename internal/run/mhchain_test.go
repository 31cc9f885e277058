package run

import (
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/crypto"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

func quickMHChainSpec(p protocol.Kind, coin protocol.CoinKind, target int, seed int64) Spec {
	spec := Defaults(p, coin)
	spec.Topology = Clustered(4, 4)
	spec.Workload = Chain(target)
	spec.Workload.TxInterval = 2 * time.Second
	spec.Seed = seed
	return spec
}

// TestClusteredChainAgreement is the acceptance run for the new matrix
// cell: 4 clusters of 4 run pipelined SMR on the lossy default channel,
// every honest node commits the per-cluster target, every cluster's cuts
// land in the cross-cluster total order, the untainted seats' global logs
// agree, and every follower's heard frontier digest matches the global
// order (Run fails on any violation; the assertions below are the
// measurements).
func TestClusteredChainAgreement(t *testing.T) {
	res, err := Run(quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.EpochsCommitted != 4 {
		t.Fatalf("per-cluster target not reached: %d", res.Chain.EpochsCommitted)
	}
	if res.Tiers == nil || res.Tiers.OrderedCuts < 4*4 {
		t.Fatalf("global order holds %d cuts, want >= 16 (4 clusters x 4 epochs)", res.Tiers.OrderedCuts)
	}
	if res.Tiers.GlobalEntries == 0 || res.Tiers.GlobalAccesses == 0 || res.Tiers.LocalAccesses == 0 {
		t.Fatalf("expected traffic and commits on both tiers: %+v", res.Tiers)
	}
	if res.Chain.CommittedTxs == 0 || res.Chain.ThroughputBps <= 0 {
		t.Fatalf("no sustained throughput: %+v", res.Chain)
	}
	// Per-cluster logs must exist for every node and carry distinct
	// traffic (clusters order disjoint client streams).
	seen := map[string]bool{}
	for flat, log := range res.Chain.Logs {
		if len(log) != 4 {
			t.Fatalf("node %d committed %d epochs, want 4", flat, len(log))
		}
		for _, entry := range log {
			for _, tx := range entry.Txs {
				key := string(tx)
				if flat%4 == 0 && seen[key] {
					t.Fatalf("tx committed by two clusters; client streams not disjoint")
				}
				if flat%4 == 0 {
					seen[key] = true
				}
			}
		}
	}
	t.Logf("4x4 clustered chain: %d txs, %d cuts in %d global entries, %v virtual, %.2f B/s",
		res.Chain.CommittedTxs, res.Tiers.OrderedCuts, res.Tiers.GlobalEntries,
		res.Duration.Round(time.Second), res.Chain.ThroughputBps)
}

// TestClusteredChainDumbo exercises the second protocol family end to end
// on the new cell (Dumbo's serial-ABA path is distinct code on both
// tiers).
func TestClusteredChainDumbo(t *testing.T) {
	res, err := Run(quickMHChainSpec(protocol.DumboKind, protocol.CoinSig, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiers.OrderedCuts < 4*3 {
		t.Fatalf("global order holds %d cuts, want >= 12", res.Tiers.OrderedCuts)
	}
}

// TestClusteredChainLeaderCrash crashes a rotating relay leader mid-run:
// cluster 0's member 0 (the relay for local epochs 0, 4, ...) goes down
// and later recovers. Relay duty must fail over so cluster 0's cuts keep
// reaching the global tier, the crashed node must catch back up to the
// full log, and every cross-cluster check must still pass.
func TestClusteredChainLeaderCrash(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 6, 3)
	spec.Workload.GCLag = spec.Workload.Epochs // peers must hold the outage's epochs
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(5*time.Minute, 0),    // cluster 0, member 0: relay for epoch 4
		scenario.RecoverAt(11*time.Minute, 0), // back for the tail of the run
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Chain.Logs[0]); got != spec.Workload.Epochs {
		t.Fatalf("crashed leader committed %d epochs after recovery, want %d", got, spec.Workload.Epochs)
	}
	if res.Tiers.OrderedCuts < 4*spec.Workload.Epochs {
		t.Fatalf("global order holds %d cuts, want >= %d despite the leader crash",
			res.Tiers.OrderedCuts, 4*spec.Workload.Epochs)
	}
}

// TestClusteredChainRecoveredAtTarget: cluster 0's member 0 crashes late
// enough that its peers reach the target while it is down, and it comes
// back with its chain already there. With no epoch left to open it has no
// transport to hear frontier beacons on, so the seat must hand it every
// later global frontier directly; a frontier learned only at recovery
// leaves it short of the global order and the run at its deadline.
func TestClusteredChainRecoveredAtTarget(t *testing.T) {
	spec := quickMHChainSpec(protocol.DumboKind, protocol.CoinSig, 6, 7)
	spec.Workload.GCLag = spec.Workload.Epochs
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(7*time.Minute, 0),
		scenario.RecoverAt(13*time.Minute, 0),
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Chain.Logs[0]); got != spec.Workload.Epochs {
		t.Fatalf("recovered member committed %d epochs, want %d", got, spec.Workload.Epochs)
	}
}

// TestClusteredChainByzantineMember arms a Byzantine member (and, through
// it, the cluster's uplink seat) and requires the untainted clusters to
// stay safe and live: local logs agree, their cuts are all ordered with
// matching digests, and no forged cut for an untainted cluster survives
// (Run fails otherwise).
func TestClusteredChainByzantineMember(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, 4)
	spec.Workload.GCLag = spec.Workload.Epochs
	// Flat node 15 = cluster 3, member 3: a follower in early epochs.
	spec.Scenario = scenario.Byz(byz.NameGarbage, 15)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for flat, log := range res.Chain.Logs {
		if flat == 15 {
			if log != nil {
				t.Fatal("Byzantine member's log included in the honest result set")
			}
			continue
		}
		if len(log) != spec.Workload.Epochs {
			t.Fatalf("honest node %d committed %d epochs, want %d", flat, len(log), spec.Workload.Epochs)
		}
	}
	if res.Tiers.GlobalLogs[3] != nil {
		t.Fatal("tainted seat's global log included in the trusted set")
	}
	if res.Rejected == 0 {
		t.Error("garbage adversary ran but no rejections surfaced in Stats")
	}
}

// TestClusteredChainForgedCutsRejected is the tentpole's acceptance
// matrix: a Byzantine relay seat running forgecut — rewriting the cut
// records in its own global proposals to claim an untainted cluster with
// an attacker-chosen digest — commits zero forged cuts under both
// engines, whether armed from the start or mid-run. Run itself re-walks
// the committed global order and fails on any forgery carrying a valid
// certificate, so a passing run is the zero-forged-cuts proof; the
// assertions below check the attack actually fired (rejections counted)
// and the untainted clusters stayed live. Whether one run's forging seat
// gets a proposal into the order before the run ends is up to the seed, so
// each case runs four seeds and wants rejections across them.
func TestClusteredChainForgedCutsRejected(t *testing.T) {
	const target = 6
	cases := []struct {
		name  string
		proto protocol.Kind
		armAt time.Duration // 0 = from the start
	}{
		{"acs-start", protocol.HoneyBadger, 0},
		{"acs-midrun", protocol.HoneyBadger, 2 * time.Minute},
		{"dumbo-start", protocol.DumboKind, 0},
		{"dumbo-midrun", protocol.DumboKind, 2 * time.Minute},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var rejectedCuts int
			var rejected uint64
			for seed := int64(1); seed <= 4; seed++ {
				spec := quickMHChainSpec(tc.proto, protocol.CoinSig, target, seed)
				// Flat node 15 = cluster 3, member 3; arming it also arms
				// cluster 3's relay seat on the global tier.
				spec.Scenario = scenario.Plan{}.Then(scenario.ByzAt(tc.armAt, 15, byz.NameForgeCut))
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// The three untainted clusters' cuts must all be ordered.
				if res.Tiers.OrderedCuts < 3*target {
					t.Fatalf("seed %d: cut order holds %d cuts, want >= %d from the untainted clusters",
						seed, res.Tiers.OrderedCuts, 3*target)
				}
				if res.Tiers.GlobalLogs[3] != nil {
					t.Fatalf("seed %d: forging seat's global log included in the trusted set", seed)
				}
				rejectedCuts += res.Tiers.CutCerts.RejectedCuts
				rejected += res.Rejected
			}
			if rejectedCuts == 0 {
				t.Error("forgecut adversary ran on four seeds but no cut was rejected")
			}
			if rejected == 0 {
				t.Error("rejected cuts did not surface in Report.Rejected")
			}
		})
	}
}

// TestClusteredChainForgeDuringFailover combines the two hard paths: an
// untainted cluster's designated relay crashes mid-run (share
// re-collection by the taking-over relay) while a Byzantine seat forges
// cuts the whole time. The recovered relay must catch up, every
// untainted cluster's certified cuts must be ordered, and zero forged
// cuts survive (Run fails otherwise).
func TestClusteredChainForgeDuringFailover(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 6, 10)
	spec.Workload.GCLag = spec.Workload.Epochs
	spec.Scenario = scenario.Byz(byz.NameForgeCut, 15).Then(
		scenario.CrashAt(5*time.Minute, 0),    // cluster 0, member 0: relay for epoch 4
		scenario.RecoverAt(11*time.Minute, 0), // back for the tail of the run
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Chain.Logs[0]); got != spec.Workload.Epochs {
		t.Fatalf("crashed relay committed %d epochs after recovery, want %d", got, spec.Workload.Epochs)
	}
	if res.Tiers.OrderedCuts < 3*spec.Workload.Epochs {
		t.Fatalf("cut order holds %d cuts, want >= %d despite crash and forgery",
			res.Tiers.OrderedCuts, 3*spec.Workload.Epochs)
	}
	if res.Tiers.CutCerts.RejectedCuts == 0 {
		t.Error("forgecut adversary ran but no cut was rejected")
	}
	if res.Rejected == 0 {
		t.Error("rejected cuts did not surface in Report.Rejected")
	}
}

// TestClusteredChainCertCostPinned pins the simulated time the cut
// certificates charge: every threshold op the driver schedules (member
// share signing, seat share verification, combining, per-seat
// certificate verification) bills the crypto cost model exactly once, so
// the charged total is a fixed linear function of the op counts. The
// fault-free 4x4 run also pins the counts themselves: one combine per
// cut, f+1 share verifications per cut, and every seat verifying every
// cut.
func TestClusteredChainCertCostPinned(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 4, 1)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cc := res.Tiers.CutCerts
	if cc == nil {
		t.Fatal("clustered chain report carries no cut-certificate stats")
	}
	const clusters, cuts = 4, 4 * 4 // M x target
	if cc.Combines != cuts {
		t.Errorf("combines = %d, want one per cut (%d)", cc.Combines, cuts)
	}
	if want := 2 * cuts; cc.ShareVerifies != want { // f+1 = 2 per certificate
		t.Errorf("share verifies = %d, want f+1 per cut (%d)", cc.ShareVerifies, want)
	}
	if want := clusters * cuts; cc.Verifies != want { // every seat, every cut
		t.Errorf("certificate verifies = %d, want %d (every seat verifies every cut)", cc.Verifies, want)
	}
	if cc.Signs < 2*cuts || cc.Signs > 4*cuts {
		t.Errorf("signs = %d, want between f+1 and P per cut [%d, %d]", cc.Signs, 2*cuts, 4*cuts)
	}
	if cc.RejectedCuts != 0 {
		t.Errorf("fault-free run rejected %d cuts", cc.RejectedCuts)
	}
	cost := crypto.CostFor(spec.Crypto.ThresholdSet)
	want := time.Duration(cc.Signs)*cost.TSSign +
		time.Duration(cc.ShareVerifies)*cost.TSVerifyShare +
		time.Duration(cc.Combines)*cost.TSCombine +
		time.Duration(cc.Verifies)*cost.TSVerify
	if cc.Busy != want {
		t.Errorf("charged cut-certificate time %v, want %v (op counts x cost model)", cc.Busy, want)
	}
}

// TestClusteredChainDeterministic: same Spec, same Report — the new cell
// preserves run-level determinism (cut relay, beacons, and failover all
// ride the scheduler).
func TestClusteredChainDeterministic(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, 5)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Chain.CommittedTxs != b.Chain.CommittedTxs ||
		a.Accesses != b.Accesses || a.Tiers.OrderedCuts != b.Tiers.OrderedCuts {
		t.Errorf("same seed differs: %v/%d/%d/%d vs %v/%d/%d/%d",
			a.Duration, a.Chain.CommittedTxs, a.Accesses, a.Tiers.OrderedCuts,
			b.Duration, b.Chain.CommittedTxs, b.Accesses, b.Tiers.OrderedCuts)
	}
}
