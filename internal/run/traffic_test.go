package run_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func trafficSpec(epochs int) run.Spec {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(epochs)
	spec.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Rate: 0.05, Clients: 100}
	return spec
}

func TestChainPoissonArrivals(t *testing.T) {
	res, err := run.Run(trafficSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Chain
	if c.EpochsCommitted != 3 || c.CommittedTxs == 0 {
		t.Fatalf("chain = %+v", c)
	}
	if c.SubmittedTxs < c.CommittedTxs {
		t.Fatalf("offered %d < committed %d", c.SubmittedTxs, c.CommittedTxs)
	}
	if c.TxLatency == nil || c.TxLatency.Count != c.CommittedTxs {
		t.Fatalf("TxLatency = %+v, want one sample per committed tx (%d)", c.TxLatency, c.CommittedTxs)
	}
	if c.TxLatency.P50 <= 0 || c.TxLatency.P99 < c.TxLatency.P50 || c.TxLatency.Max < c.TxLatency.P99 {
		t.Fatalf("latency percentiles disordered: %+v", c.TxLatency)
	}
	if len(c.TxLatencySample) != c.TxLatency.Count {
		t.Fatalf("raw sample has %d entries, summary %d", len(c.TxLatencySample), c.TxLatency.Count)
	}
	if c.PeakMempoolBytes <= 0 {
		t.Fatal("peak mempool bytes not recorded")
	}
}

// TestChainLegacyWorkloadReportsTxLatency covers the satellite fix: the
// fixed-interval workload must also report true per-transaction
// submit->commit latency, which is NOT the epoch-granularity
// MeanCommitLatency.
func TestChainLegacyWorkloadReportsTxLatency(t *testing.T) {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(3)
	spec.Workload.TxInterval = time.Second
	res, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Chain
	if c.TxLatency == nil || c.TxLatency.Count != c.CommittedTxs {
		t.Fatalf("legacy workload TxLatency = %+v (committed %d)", c.TxLatency, c.CommittedTxs)
	}
}

func TestChainArrivalDeterminism(t *testing.T) {
	a, err := run.Run(trafficSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run.Run(trafficSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("identical traffic specs produced different reports")
	}
	other := trafficSpec(2)
	other.Seed = 7
	c, err := run.Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if c.Chain.SubmittedTxs == a.Chain.SubmittedTxs && c.Duration == a.Duration {
		t.Fatal("different seeds reproduced the same arrival process")
	}
}

// TestChainBackpressure offers more than the chain commits against a
// 1 KiB pool cap. The run commits about 0.3 tx/s; seed-1 probes of this
// spec reject nothing at admission at 0.32 and 0.36 tx/s and first reject
// at 0.4 tx/s, so 0.64 tx/s is 1.6x the lowest rate that overloads.
func TestChainBackpressure(t *testing.T) {
	const rate = 0.64
	spec := trafficSpec(3)
	spec.Workload.Arrival.Rate = rate
	spec.Workload.Mempool.MaxPendingBytes = 1024
	res, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Chain
	if c.AdmissionRejected == 0 {
		t.Fatalf("no admission rejection: %v tx/s no longer overloads a 1 KiB pool (peak %dB, %d offered, %d committed in %v); raise the rate",
			rate, c.PeakMempoolBytes, c.SubmittedTxs, c.CommittedTxs, res.Duration)
	}
	if c.PeakMempoolBytes > 1024 {
		t.Fatalf("peak pool %dB exceeds the 1024B cap", c.PeakMempoolBytes)
	}
	// Admission rejections surface in the node-level Rejected counter too.
	if res.Rejected == 0 {
		t.Fatal("mempool rejections did not surface in Stats.Rejected")
	}
}

// TestChainOnOffArrivals: bursty on-off clients feed the chain, and an
// arrival commits. The first arrival can come after the pipeline has cut
// the proposals of the first two epochs, which then commit empty, so the
// run is four epochs long: an arrival has later proposals to ride in.
func TestChainOnOffArrivals(t *testing.T) {
	spec := trafficSpec(4)
	spec.Workload.Arrival = traffic.Pattern{
		Kind: traffic.OnOff, Rate: 0.05, Clients: 50,
		OnMean: time.Minute, OffMean: 4 * time.Minute,
	}
	res, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.EpochsCommitted != 4 || res.Chain.CommittedTxs == 0 {
		t.Fatalf("chain = %+v", res.Chain)
	}
}

// TestClusteredChainPoissonArrivals: the one client path serves the
// clustered topology too — every Poisson arrival fans out as one
// transaction per cluster, exactly like a fixed-interval tick. Three
// epochs, so that every cluster has cut some of its arrivals into a
// proposal the common subset took.
func TestClusteredChainPoissonArrivals(t *testing.T) {
	spec := trafficSpec(3)
	spec.Topology = run.Clustered(4, 4)
	res, err := run.Run(spec)
	if err != nil {
		t.Fatalf("Poisson arrivals on the clustered topology: %v", err)
	}
	c := res.Chain
	if c.SubmittedTxs == 0 || c.SubmittedTxs%4 != 0 {
		t.Fatalf("SubmittedTxs = %d, want a positive multiple of the 4 clusters", c.SubmittedTxs)
	}
	if forged := protocol.CountForged(c.Logs, spec.Workload.TxSize, c.SubmittedTxs); forged != 0 {
		t.Fatalf("%d forged transactions", forged)
	}
	// Every cluster commits, and no transaction is committed by two
	// clusters: the client streams are distinct.
	owner := map[string]int{}
	for cl := 0; cl < 4; cl++ {
		txs := 0
		for _, entry := range c.Logs[cl*4] {
			for _, tx := range entry.Txs {
				if prev, dup := owner[string(tx)]; dup {
					t.Fatalf("tx committed by clusters %d and %d", prev, cl)
				}
				owner[string(tx)] = cl
				txs++
			}
		}
		if txs == 0 {
			t.Errorf("cluster %d committed no client transactions", cl)
		}
	}
	again, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportDigest(t, res), reportDigest(t, again); a != b {
		t.Fatalf("same Spec, different trajectories: %s vs %s", a, b)
	}
}

func TestArrivalValidation(t *testing.T) {
	bad := trafficSpec(2)
	bad.Workload.Arrival.Kind = "fractal"
	if _, err := run.Run(bad); err == nil {
		t.Error("unknown arrival kind accepted")
	}
	neg := trafficSpec(2)
	neg.Workload.Arrival.Rate = -1
	if _, err := run.Run(neg); err == nil {
		t.Error("negative rate accepted")
	}
	oneshot := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	oneshot.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Rate: 1}
	if _, err := run.Run(oneshot); err == nil {
		t.Error("Arrival accepted on the one-shot workload")
	}
}

// TestEncryptRefusedWithoutPath: a family that never encrypts its
// proposals (Dumbo, Alea) must refuse Encrypt, not run in the clear under
// a Spec that says otherwise.
func TestEncryptRefusedWithoutPath(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.DumboKind, protocol.AleaKind} {
		spec := run.Defaults(kind, protocol.CoinSig)
		spec.Encrypt = true
		spec.Workload = run.Chain(3)
		if _, err := run.Run(spec); err == nil {
			t.Errorf("%s ran with Encrypt", kind)
		}
	}
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(1)
	if _, err := run.Run(spec); err != nil {
		t.Errorf("HoneyBadger with Encrypt refused: %v", err)
	}
}

// TestChainWirelessScenarios drives the chain workload through the three
// wireless-native scenario kinds. Mild parameters: the point is that the
// run completes with safety intact, not to find each kind's breaking
// point.
func TestChainWirelessScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("three full chain runs")
	}
	cases := []struct {
		name string
		plan scenario.Plan
	}{
		{"mobility", scenario.MustParse("mobility@0s:20,900")},
		{"dutycycle", scenario.MustParse("dutycycle@0s:0.8,60s")},
		{"churn", scenario.MustParse("churn@5m+40m:10m,2m")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := trafficSpec(2)
			spec.Workload.Arrival.Rate = 0.02
			spec.Scenario = tc.plan
			res, err := run.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Chain.EpochsCommitted != 2 {
				t.Fatalf("committed %d epochs, want 2", res.Chain.EpochsCommitted)
			}
			forged := protocol.CountForged(res.Chain.Logs, spec.Workload.TxSize, res.Chain.SubmittedTxs)
			if forged != 0 {
				t.Fatalf("%d forged transactions under %s", forged, tc.name)
			}
		})
	}
}
