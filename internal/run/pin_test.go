package run_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// reportDigest hashes everything a run yields: the Report's stable JSON
// plus the three sections JSON omits — the committed logs of both tiers
// and the raw per-transaction latency sample.
func reportDigest(t *testing.T, rep *run.Report) string {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	num := func(v int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	logs := func(all [][]protocol.LogEntry) {
		num(int64(len(all)))
		for _, log := range all {
			num(int64(len(log)))
			for _, entry := range log {
				num(int64(entry.Epoch))
				num(int64(len(entry.Txs)))
				for _, tx := range entry.Txs {
					num(int64(len(tx)))
					h.Write(tx)
				}
			}
		}
	}
	if rep.Chain != nil {
		logs(rep.Chain.Logs)
		num(int64(len(rep.Chain.TxLatencySample)))
		for _, d := range rep.Chain.TxLatencySample {
			num(int64(d))
		}
	}
	if rep.Tiers != nil {
		logs(rep.Tiers.GlobalLogs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMatrixPinned pins the trajectory of all four Topology × Workload
// cells: any change to construction order, seed derivation, RNG draw
// order, client sequence numbering or the Report fold moves a digest and
// fails here, under its cell's name, in seconds. The digests are a
// determinism pin, not a correctness oracle: regenerate them (the
// failure message prints the new value) only with a change that is meant
// to move trajectories.
func TestMatrixPinned(t *testing.T) {
	base := func(p protocol.Kind, coin protocol.CoinKind, topo run.Topology, load run.Workload) run.Spec {
		spec := run.Defaults(p, coin)
		spec.Topology = topo
		spec.Workload = load
		spec.Seed = 3
		return spec
	}
	fast := func(epochs int) run.Workload {
		load := run.Chain(epochs)
		load.TxInterval = 2 * time.Second
		return load
	}
	cases := []struct {
		cell, name string
		spec       func() run.Spec
		want       string
	}{
		{"SingleHop×OneShot", "HB-SC-batched", func() run.Spec {
			return base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), run.OneShot(2))
		}, "71de85cacea0f796841982038d99f82b6925e7d78504359726e8d9bb6ef76009"},
		{"SingleHop×OneShot", "Dumbo-LC-baseline-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinLocal, run.SingleHop(), run.OneShot(2))
			spec.Batched = false
			spec.Scenario = scenario.MustParse("crash@0s:3")
			return spec
		}, "b44504f0e0f357bdb25e395b119d9e8886f03a15fd9c6aba76ac5ddaf743de5e"},
		{"SingleHop×OneShot", "BEAT-crash-recover", func() run.Spec {
			// Node 3 dies in epoch 0 and rejoins at an epoch boundary.
			spec := base(protocol.BEAT, "", run.SingleHop(), run.OneShot(4))
			spec.Scenario = scenario.MustParse("crash@30s:3;recover@1m30s:3")
			return spec
		}, "1438f5c1b7f5d54f80643c2a4c31234356e9bb17f11a30ce6bd314c4fe1ca143"},
		{"Clustered×OneShot", "HB-SC", func() run.Spec {
			return base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
		}, "e9fe4fe622d988d25d1066475928ec4ab9cf8e0bb94bb76765f2fe3f74ba1109"},
		{"Clustered×OneShot", "BEAT", func() run.Spec {
			return base(protocol.BEAT, "", run.Clustered(4, 4), run.OneShot(1))
		}, "6bbe259d4e2b5fdad26b3c9feecea109f2bce358add0c27fe275bab203d56918"},
		{"Clustered×OneShot", "Dumbo-SC-follower-crash-recover-byz", func() run.Spec {
			// Cluster 0's member 1 (a follower in epoch 0) crashes and
			// rejoins as epoch 1's leader; cluster 2's member 3 is
			// Byzantine but never leads. Epoch 0 ends before 2 m, so the
			// rejoin comes at 1 m: a leader still down when its epoch
			// starts would never report.
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
			spec.Scenario = scenario.MustParse("crash@10s:1;recover@1m:1;byz@0s:11:garbage")
			return spec
		}, "7426c321d5396c2a8b1a894e659f0b6c3fe64f240513ae889273cdcb6f1a2e66"},
		{"SingleHop×Chain", "fixed-interval-crash-recover", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.GCLag = 4
			spec.Scenario = scenario.MustParse("crash@4m:2;recover@9m:2")
			return spec
		}, "80466ec1057316c2347d5e3d5134adf4cb87a54b30239341aeac4679e75ef125"},
		{"SingleHop×Chain", "poisson", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(3))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Rate: 0.05, Clients: 100}
			return spec
		}, "ccf26e1ece69caebca9d10fca3d7d3c444528bcc0d2efeaefced7e087a5856bc"},
		{"SingleHop×Chain", "Alea-onoff-capped-byz", func() run.Spec {
			spec := base(protocol.AleaKind, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Rate: 0.3, Clients: 20,
				OnMean: time.Minute, OffMean: 2 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 1024
			spec.Scenario = scenario.MustParse("byz@1m:3:equivocate")
			return spec
		}, "28f6c908dbef00c59f44f0f5ff12e84035bb1977ee0f0494f40cae20e3d620ee"},
		{"SingleHop×Chain", "Alea-onoff-capped-churn", func() run.Spec {
			// The alea_overload benchmark workload's shape, shorter: bursty
			// overload against a 2 KiB pool, and churn whose 10-minute
			// outages outlast more than four epochs, at the default GCLag.
			// The peers hold the epoch a churned node will resume at until
			// its frames show it past it (protocol.Chain's epoch GC).
			spec := base(protocol.AleaKind, protocol.CoinSig, run.SingleHop(), run.Chain(16))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Rate: 0.08, Clients: 1000,
				OnMean: 2 * time.Minute, OffMean: 8 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 2048
			spec.Scenario = scenario.MustParse("churn@0s+1h:15m,10m")
			return spec
		}, "7a852a5be4e78f6be2268ffcf63c0a73af70b65a304cda3e487d3d877987f0a8"},
		{"Clustered×Chain", "Dumbo-SC-relay-leader-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), fast(3))
			// Cluster 0 member 1 is the designated relay for local epoch 1.
			spec.Scenario = scenario.MustParse("crash@3m:1")
			return spec
		}, "171d7eecd676f23c5ae70ca5c46d58a55bc70dd793815a5f599c5fa30978d3f2"},
		{"Clustered×Chain", "HB-SC-byz-member", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), fast(2))
			spec.Scenario = scenario.MustParse("byz@0s:5:garbage")
			return spec
		}, "aa46f614fc92b79421f38c77a473dd1d9730680ff9ab5dea862ceacf81fe0d87"},
		{"Clustered×Chain", "BEAT-forgecut-relay-crash-recover", func() run.Spec {
			// A forging seat the whole run, and cluster 0's member 0 away
			// across several relay turns, back through mid-run catch-up.
			spec := base(protocol.BEAT, "", run.Clustered(4, 4), fast(4))
			spec.Workload.GCLag = 4
			spec.Scenario = scenario.MustParse("byz@0s:15:forgecut;crash@5m:0;recover@20m:0")
			return spec
		}, "b6b7cedb1f1701912cf64753f09e1b6156f74f71ee44f54f9e611210cf3a4af2"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cell+"/"+tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := run.Run(tc.spec())
			if err != nil {
				t.Fatal(err)
			}
			if got := reportDigest(t, rep); got != tc.want {
				t.Errorf("%s trajectory moved:\n got  %s\n want %s", tc.name, got, tc.want)
			}
		})
	}
}
