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
		}, "2e6c66e974ad5d07d4077ec4f6596a0d5a5bac5090d536c61f16ec88553c8959"},
		{"SingleHop×OneShot", "Dumbo-LC-baseline-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinLocal, run.SingleHop(), run.OneShot(2))
			spec.Batched = false
			spec.Scenario = scenario.MustParse("crash@0s:3")
			return spec
		}, "2df272a16bee0bbf831c50dc3290a5665ad19ca38ef1672c41d4fbd13d3a2943"},
		{"SingleHop×OneShot", "BEAT-crash-recover", func() run.Spec {
			// Node 3 dies in epoch 0 and rejoins at an epoch boundary.
			spec := base(protocol.BEAT, "", run.SingleHop(), run.OneShot(4))
			spec.Scenario = scenario.MustParse("crash@30s:3;recover@1m30s:3")
			return spec
		}, "4a0f77ef11eb36e3f6b2f7752cc46a96dfc094b607f2b144f860808e28b50703"},
		{"Clustered×OneShot", "HB-SC", func() run.Spec {
			return base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
		}, "d10fbe10c85fb7290856fa1038e34f0fa42701cdab2523385c1e7582d98ec7c2"},
		{"Clustered×OneShot", "BEAT", func() run.Spec {
			return base(protocol.BEAT, "", run.Clustered(4, 4), run.OneShot(1))
		}, "c1291b02aec99486d2b167cb8b3c542d5039cd891ab85ea9081db67f8ac6ed86"},
		{"Clustered×OneShot", "Dumbo-SC-follower-crash-recover-byz", func() run.Spec {
			// Cluster 0's member 1 (a follower in epoch 0) crashes and
			// rejoins as epoch 1's leader; cluster 2's member 3 is
			// Byzantine but never leads. Epoch 0 ends before 2 m, so the
			// rejoin comes at 1 m: a leader still down when its epoch
			// starts would never report.
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
			spec.Scenario = scenario.MustParse("crash@10s:1;recover@1m:1;byz@0s:11:garbage")
			return spec
		}, "528b7338cacad05250687aa13efa8d6ec2b1be38993e381ffe767271a276a4f4"},
		{"SingleHop×Chain", "fixed-interval-crash-recover", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.GCLag = 4
			spec.Scenario = scenario.MustParse("crash@4m:2;recover@9m:2")
			return spec
		}, "dc103293ccd41251e78559ffa4c7063619a8f8719fd82fe7c317a06c645ed53f"},
		{"SingleHop×Chain", "poisson", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(3))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Rate: 0.05, Clients: 100}
			return spec
		}, "ecf55c2a663429333ab7874e1887fac446ed15958ebfea0da12feec4d46cb5db"},
		{"SingleHop×Chain", "Alea-onoff-capped-byz", func() run.Spec {
			spec := base(protocol.AleaKind, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Rate: 0.3, Clients: 20,
				OnMean: time.Minute, OffMean: 2 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 1024
			spec.Scenario = scenario.MustParse("byz@1m:3:equivocate")
			return spec
		}, "33ccbe52cf0dbef74e48b0186de9fb6e764ea4f3bf96c41a10f06dd82c3a07dd"},
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
		}, "3714c6772abf4409ec73edf066f900ccd3aa6dffb1749c6bae3911a7333ed825"},
		{"Clustered×Chain", "Dumbo-SC-relay-leader-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), fast(3))
			// Cluster 0 member 1 is the designated relay for local epoch 1.
			spec.Scenario = scenario.MustParse("crash@3m:1")
			return spec
		}, "8a9224f9f36afe4a0639a2af54c414a4edab19b6cae47189d0b7288100b59aa5"},
		{"Clustered×Chain", "HB-SC-byz-member", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), fast(2))
			spec.Scenario = scenario.MustParse("byz@0s:5:garbage")
			return spec
		}, "1fededdc31426b045812c152b11a7b8584c0a6126040c5ef35e47a2ec55fb211"},
		{"Clustered×Chain", "BEAT-forgecut-relay-crash-recover", func() run.Spec {
			// A forging seat the whole run, and cluster 0's member 0 away
			// across several relay turns, back through mid-run catch-up.
			spec := base(protocol.BEAT, "", run.Clustered(4, 4), fast(4))
			spec.Workload.GCLag = 4
			spec.Scenario = scenario.MustParse("byz@0s:15:forgecut;crash@5m:0;recover@20m:0")
			return spec
		}, "8e68630feb4c5ee58627828b24c978ccd5adbb84b00099d14f5c3d654bcdb8ed"},
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
