package run

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/scenario"
)

func quickSpec(p protocol.Kind, coin protocol.CoinKind, batched bool, seed int64) Spec {
	spec := Defaults(p, coin)
	spec.Batched = batched
	spec.Workload = OneShot(1)
	spec.Workload.BatchSize = 2
	spec.Seed = seed
	spec.Net.LossProb = 0
	return spec
}

func TestHoneyBadgerSCSingleEpoch(t *testing.T) {
	res, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.OneShot.DeliveredTxs < 2*3 { // at least 2f+1 proposals accepted
		t.Errorf("delivered %d txs, want >= 6", res.OneShot.DeliveredTxs)
	}
	if res.OneShot.MeanLatency <= 0 {
		t.Error("zero latency")
	}
	t.Logf("HB-SC: latency=%v txs=%d accesses=%d", res.OneShot.MeanLatency, res.OneShot.DeliveredTxs, res.Accesses)
}

func TestDumboSC(t *testing.T) {
	res, err := Run(quickSpec(protocol.DumboKind, protocol.CoinSig, true, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Dumbo accepts exactly the 2f+1 proposals of the winning vector.
	if res.OneShot.DeliveredTxs != 3*2 {
		t.Errorf("delivered %d txs, want 6 (2f+1 proposals x 2 txs)", res.OneShot.DeliveredTxs)
	}
	t.Logf("Dumbo-SC: latency=%v", res.OneShot.MeanLatency)
}

func TestBaselineSlowerThanBatched(t *testing.T) {
	batched, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 6))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, false, 6))
	if err != nil {
		t.Fatal(err)
	}
	if batched.OneShot.MeanLatency >= baseline.OneShot.MeanLatency {
		t.Errorf("batched %v not faster than baseline %v", batched.OneShot.MeanLatency, baseline.OneShot.MeanLatency)
	}
	if batched.Accesses >= baseline.Accesses {
		t.Errorf("batched accesses %d not fewer than baseline %d", batched.Accesses, baseline.Accesses)
	}
	t.Logf("latency: batched=%v baseline=%v; accesses: %d vs %d",
		batched.OneShot.MeanLatency, baseline.OneShot.MeanLatency, batched.Accesses, baseline.Accesses)
}

func TestMultiEpochProgress(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 7)
	spec.Workload.Epochs = 3
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OneShot.EpochLatencies) != 3 {
		t.Fatalf("got %d epochs", len(res.OneShot.EpochLatencies))
	}
	if res.OneShot.TPM <= 0 {
		t.Error("zero throughput")
	}
}

func TestWithPacketLoss(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 8)
	spec.Net.LossProb = 0.08
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OneShot.DeliveredTxs == 0 {
		t.Error("no delivery under loss")
	}
}

func TestWithCrashFault(t *testing.T) {
	for _, p := range []struct {
		kind protocol.Kind
		coin protocol.CoinKind
	}{{protocol.HoneyBadger, protocol.CoinSig}, {protocol.DumboKind, protocol.CoinSig}} {
		p := p
		t.Run(string(p.kind), func(t *testing.T) {
			spec := quickSpec(p.kind, p.coin, true, 9)
			spec.Scenario = scenario.Crash(3)
			spec.Deadline = 120 * time.Minute
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.OneShot.DeliveredTxs == 0 {
				t.Error("no delivery with crashed node")
			}
		})
	}
}

func TestWithAdversarialDelays(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 10)
	spec.Scenario = scenario.Delay(0.3, 5*time.Second)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OneShot.DeliveredTxs == 0 {
		t.Error("no delivery under adversarial delay")
	}
}

// TestCrashRecoverAtEpochBoundary: a node crashed mid-epoch rejoins
// mid-epoch. It resumes the epoch it crashed in, at its commit frontier,
// and the group's barrier counts it: epoch 0 is over only once the
// returning node has committed it too.
func TestCrashRecoverAtEpochBoundary(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 14)
	spec.Workload.Epochs = 4
	spec.Deadline = 120 * time.Minute
	// The crash and the return fall at a third and two thirds of epoch 0
	// as a crash-free run of the same spec times it.
	free, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := free.OneShot.EpochLatencies[0]
	back := epoch0 * 2 / 3
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(epoch0/3, 3),
		scenario.RecoverAt(back, 3),
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OneShot.EpochLatencies) != 4 {
		t.Fatalf("got %d epochs", len(res.OneShot.EpochLatencies))
	}
	if res.OneShot.EpochLatencies[0] <= back {
		t.Fatalf("epoch 0 ended at %v, before node 3 came back at %v to finish it", res.OneShot.EpochLatencies[0], back)
	}
	if res.OneShot.DeliveredTxs == 0 {
		t.Error("no delivery across crash/recovery")
	}
}

// TestRunScenarioDeterministic: scripted faults must preserve determinism
// in a one-shot run, and full Reports must match field-for-field.
func TestRunScenarioDeterministic(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 15)
	spec.Workload.Epochs = 2
	spec.Deadline = 4 * time.Hour
	spec.Scenario = scenario.Plan{}.Then(
		scenario.DelayFrom(0, 0.25, 8*time.Second, 0),
		scenario.JamAt(2*time.Minute, 30*time.Second),
	)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed differs under scenario:\n%+v\nvs\n%+v", a, b)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 11))
	if err != nil {
		t.Fatal(err)
	}
	if a.OneShot.MeanLatency != b.OneShot.MeanLatency || a.Accesses != b.Accesses {
		t.Errorf("same seed differs: %v/%d vs %v/%d",
			a.OneShot.MeanLatency, a.Accesses, b.OneShot.MeanLatency, b.Accesses)
	}
}

func TestSeedsVaryOutcome(t *testing.T) {
	a, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 13))
	if err != nil {
		t.Fatal(err)
	}
	if a.OneShot.MeanLatency == b.OneShot.MeanLatency {
		t.Log("two seeds produced identical latency (possible, not failing)")
	}
}

func TestInvalidSpecs(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1)
	for _, n := range []int{1, 5} {
		spec.N = n
		if _, err := Run(spec); err == nil {
			t.Errorf("N = %d accepted: not 3f+1 >= 4", n)
		}
	}
	spec = quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1)
	spec.Topology = Clustered(5, 4)
	if _, err := Run(spec); err == nil {
		t.Error("clusters != 3f+1 accepted")
	}
	spec = quickSpec("raft", protocol.CoinSig, true, 1)
	if _, err := Run(spec); err == nil {
		t.Error("unknown protocol accepted")
	}
	// An unknown coin — or none, for a family with no coin of its own —
	// used to panic in protocol.newABA once the deployment was built.
	for _, coin := range []protocol.CoinKind{"XX", ""} {
		if _, err := Run(quickSpec(protocol.HoneyBadger, coin, true, 1)); err == nil {
			t.Errorf("honeybadger with coin %q accepted", coin)
		}
	}
	if _, err := Run(quickSpec(protocol.BEAT, "", true, 1)); err != nil {
		t.Errorf("beat without a coin (it brings its own) refused: %v", err)
	}
	spec = quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1)
	spec.Workload.Kind = "stream"
	if _, err := Run(spec); err == nil {
		t.Error("unknown workload accepted")
	}
	spec = quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1)
	spec.Topology.Kind = "mesh"
	if _, err := Run(spec); err == nil {
		t.Error("unknown topology accepted")
	}
}

// paperVariants are the paper's five protocol configurations (Fig. 13
// legend).
var paperVariants = []struct {
	Name string
	Kind protocol.Kind
	Coin protocol.CoinKind
}{
	{"HB-LC", protocol.HoneyBadger, protocol.CoinLocal},
	{"HB-SC", protocol.HoneyBadger, protocol.CoinSig},
	{"BEAT", protocol.BEAT, protocol.CoinFlip},
	{"Dumbo-LC", protocol.DumboKind, protocol.CoinLocal},
	{"Dumbo-SC", protocol.DumboKind, protocol.CoinSig},
}

func TestAllFiveProtocolsComplete(t *testing.T) {
	for i, v := range paperVariants {
		v, i := v, i
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(quickSpec(v.Kind, v.Coin, true, 20+int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if res.OneShot.DeliveredTxs == 0 {
				t.Error("no transactions delivered")
			}
		})
	}
}

func quickClusteredSpec(seed int64) Spec {
	spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Topology = Clustered(4, 4)
	spec.Workload = OneShot(1)
	spec.Workload.BatchSize = 2
	spec.Net.LossProb = 0
	spec.Seed = seed
	return spec
}

func TestClusteredOneShot(t *testing.T) {
	spec := quickClusteredSpec(30)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OneShot.DeliveredTxs == 0 {
		t.Error("no transactions delivered in the clustered deployment")
	}
	if res.Tiers == nil || res.Tiers.GlobalAccesses == 0 || res.Tiers.LocalAccesses == 0 {
		t.Error("expected traffic on both tiers")
	}
	// Regression for the stats-aggregation fix: the global tier's signed
	// packets must be measured and folded into the flat counters.
	if res.Tiers.GlobalLogicalSent == 0 {
		t.Error("global-tier transport counters not folded into the result")
	}
	if res.LogicalSent <= res.Tiers.GlobalLogicalSent {
		t.Errorf("LogicalSent %d does not include local tiers on top of global %d",
			res.LogicalSent, res.Tiers.GlobalLogicalSent)
	}
	t.Logf("clustered: latency=%v local=%d global=%d globalSent=%d", res.OneShot.MeanLatency,
		res.Tiers.LocalAccesses, res.Tiers.GlobalAccesses, res.Tiers.GlobalLogicalSent)
}

// TestClusteredOneShotCrashRecovery: a member crashed mid-epoch rejoins
// mid-epoch through the chain's recovery, and the epoch is over only once
// it, too, has heard the global order — here it is the designated relay
// of epoch 1's cut as well.
func TestClusteredOneShotCrashRecovery(t *testing.T) {
	spec := quickClusteredSpec(32)
	spec.Workload.Epochs = 2
	// The crash and the return fall at a third and two thirds of epoch 0
	// as a crash-free run of the same spec times it, so the follower is
	// back well before the epoch ends however fast the epoch is.
	free, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := free.OneShot.EpochLatencies[0]
	back := epoch0 * 2 / 3
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(epoch0/3, 1), // cluster 0, member 1
		scenario.RecoverAt(back, 1),
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OneShot.EpochLatencies) != 2 {
		t.Fatalf("got %d epochs", len(res.OneShot.EpochLatencies))
	}
	if res.OneShot.EpochLatencies[0] <= back {
		t.Fatalf("epoch 0 ended at %v, before member 1 came back at %v", res.OneShot.EpochLatencies[0], back)
	}
	if res.OneShot.DeliveredTxs == 0 {
		t.Error("no delivery across the crash/recovery")
	}
}

// TestClusteredOneShotLeaderCrash: Fig. 13b's HB-SC cell survives a
// crashed cluster leader. Member 0 of cluster 0 would relay the cluster's
// epoch-0 cut and its frontier beacons; it crashes mid-epoch for good, and
// relay duty passes to the next member that holds the cut's certificate.
func TestClusteredOneShotLeaderCrash(t *testing.T) {
	spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Topology = Clustered(4, 4)
	spec.Workload = OneShot(1)
	spec.Deadline = time.Hour
	spec.Scenario = scenario.MustParse("crash@10s:0")
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("clustered one-shot with a crashed leader: %v", err)
	}
	if res.OneShot.EpochLatencies[0] <= 10*time.Second || res.OneShot.DeliveredTxs == 0 {
		t.Fatalf("epoch 0 took %v and delivered %d txs: the crash did not fall inside it",
			res.OneShot.EpochLatencies[0], res.OneShot.DeliveredTxs)
	}
}

// TestClusteredOneShotMissedResultSeed pins the seed of Fig. 13b's HB-SC
// cell (its fourth seed of eight) at which a member that missed the global
// order used to wait about a minute for it to be sent again. The order now
// comes down as frontier beacons, which the relay re-sends on its unasked
// schedule. No member's NACK row asks for a beacon: it has no row
// (mhchain.go:beaconKey), so a member that misses one waits for that
// re-send or the next beacon, and the bound holds at this seed by the
// trajectory, not by a repair.
func TestClusteredOneShotMissedResultSeed(t *testing.T) {
	spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Topology = Clustered(4, 4)
	spec.Workload = OneShot(1)
	spec.Deadline = 8 * time.Hour
	spec.Seed = 3028
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if lat := res.OneShot.EpochLatencies[0]; lat >= 40*time.Second {
		t.Errorf("epoch 0 took %v, want under 40 s", lat)
	}
}

// TestClusteredOneShotScenarioDelay: scripted network effects apply
// across the tiers and keep the run deterministic.
func TestClusteredOneShotScenarioDelay(t *testing.T) {
	spec := quickClusteredSpec(31)
	spec.Scenario = scenario.Delay(0.2, 5*time.Second)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.OneShot.MeanLatency != b.OneShot.MeanLatency || a.Accesses != b.Accesses {
		t.Errorf("clustered scenario run not deterministic: %v/%d vs %v/%d",
			a.OneShot.MeanLatency, a.Accesses, b.OneShot.MeanLatency, b.Accesses)
	}
}

// TestDefaultsMatchLegacyShape pins the one consolidated defaults builder
// to the paper's calibration so the old per-driver builders cannot
// silently drift back apart inside call sites.
func TestDefaultsMatchLegacyShape(t *testing.T) {
	spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	if spec.N != 4 || !spec.Batched || !spec.Encrypt || spec.Seed != 1 {
		t.Errorf("single-hop defaults drifted: %+v", spec)
	}
	if spec.Workload.Epochs != 3 || spec.Workload.BatchSize != 4 || spec.Workload.TxSize != 64 {
		t.Errorf("one-shot workload defaults drifted: %+v", spec.Workload)
	}
	if d := Defaults(protocol.DumboKind, protocol.CoinSig); d.Encrypt {
		t.Error("Dumbo defaults must not enable threshold encryption")
	}
	c := Chain(20)
	if c.Window != 2 || c.TxSize != 64 || c.TxInterval != 4*time.Second {
		t.Errorf("chain workload defaults drifted: %+v", c)
	}
	n := Spec{Protocol: protocol.HoneyBadger, N: 4, Workload: Chain(0)}.normalize()
	if n.Deadline != 8*time.Hour || n.Workload.Epochs != 1 || n.Workload.Window != 2 {
		t.Errorf("chain normalization drifted: %+v", n)
	}
}
