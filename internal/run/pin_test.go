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
		}, "c2f86cdefebc4b98c356ef5068b47ed09c435d9c253ed0efe10698bd68c3c35f"},
		{"SingleHop×OneShot", "Dumbo-LC-baseline-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinLocal, run.SingleHop(), run.OneShot(2))
			spec.Batched = false
			spec.Scenario = scenario.MustParse("crash@0s:3")
			return spec
		}, "aee711a91c891b5a52a812861b43b2cb0deab476312235aab32bf67a74f7e8be"},
		{"SingleHop×OneShot", "BEAT-crash-recover", func() run.Spec {
			// Node 3 dies in epoch 0 and rejoins 20 s later, inside the
			// same epoch, resuming it at its commit frontier.
			spec := base(protocol.BEAT, "", run.SingleHop(), run.OneShot(4))
			spec.Scenario = scenario.MustParse("crash@10s:3;recover@30s:3")
			return spec
		}, "a05c96eced20aaa499b1f8d62e547956ce5f36961d2e51c890229f224b4497b0"},
		{"Clustered×OneShot", "HB-SC", func() run.Spec {
			return base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
		}, "8de870e643c97c2c7db583c474a00cb11491f47404466212f8bdd7a7b7d3d8b3"},
		{"Clustered×OneShot", "BEAT", func() run.Spec {
			return base(protocol.BEAT, "", run.Clustered(4, 4), run.OneShot(1))
		}, "2c9deba0221a7188f6cff5542ca56fa3ccede185ad58265b8194228ae3735838"},
		{"Clustered×OneShot", "Dumbo-SC-follower-crash-recover-byz", func() run.Spec {
			// Cluster 0's member 1, the designated relay of local epoch
			// 1's cut, crashes in epoch 0 and rejoins at 1 m, inside it;
			// cluster 2's member 3 is Byzantine, which taints cluster 2's
			// seat.
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
			spec.Scenario = scenario.MustParse("crash@10s:1;recover@1m:1;byz@0s:11:garbage")
			return spec
		}, "d37f8d82d94f875dd8a631aa9ec881dbfc7a505ad543e28a4c53cd874337df19"},
		{"SingleHop×Chain", "fixed-interval-crash-recover", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Scenario = scenario.MustParse("crash@30s:2;recover@1m:2")
			return spec
		}, "90b085d566e824f3863fd68e53bc2354a095c34387ed602c476a3b86b12e65a2"},
		{"SingleHop×Chain", "poisson", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(3))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Rate: 0.05, Clients: 100}
			return spec
		}, "f33ca80323e5bd609746d90ad04355a93b2fb3e64caae985d4af2143d46010db"},
		{"SingleHop×Chain", "Alea-onoff-capped-byz", func() run.Spec {
			spec := base(protocol.AleaKind, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Rate: 0.3, Clients: 20,
				OnMean: time.Minute, OffMean: 2 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 1024
			spec.Scenario = scenario.MustParse("byz@1m:3:equivocate")
			return spec
		}, "7de6860e4d8d79e212d21fc7c4648e37f554a95700c5cd70de633a1ae6b15435"},
		{"SingleHop×Chain", "Alea-onoff-capped-churn", func() run.Spec {
			// The alea_overload benchmark workload's shape, shorter: bursty
			// overload against a 2 KiB pool, and churn whose 10-minute
			// outages outlast more than four epochs, the GC lag at depth 2.
			// The peers hold the epoch a churned node will resume at until
			// its frames show it past it (protocol.Chain's epoch GC).
			spec := base(protocol.AleaKind, protocol.CoinSig, run.SingleHop(), run.Chain(16))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Rate: 0.08, Clients: 1000,
				OnMean: 2 * time.Minute, OffMean: 8 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 2048
			spec.Scenario = scenario.MustParse("churn@0s+1h:15m,10m")
			return spec
		}, "1aca2ed54a727f9e55f98d3dc4b84500cfabe546c568a6b311b3e56b443f91a3"},
		{"Clustered×Chain", "Dumbo-SC-relay-leader-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), fast(3))
			// Cluster 0 member 1 is the designated relay for local epoch 1.
			spec.Scenario = scenario.MustParse("crash@3m:1")
			return spec
		}, "cbe8fb289b1a5c56a0059d8cfea1e2e3b4f18a123b3a32b44c3a8e389a15818f"},
		{"Clustered×Chain", "HB-SC-byz-member", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), fast(2))
			spec.Scenario = scenario.MustParse("byz@0s:5:garbage")
			return spec
		}, "19a39a9946cca529f67a04a5ca225e986452449682870c301c6e070bdbff35a6"},
		{"Clustered×Chain", "BEAT-forgecut-relay-crash-recover", func() run.Spec {
			// A forging seat the whole run, and cluster 0's member 0 away
			// for a minute, about two relay turns, back through mid-run
			// catch-up; the run lasts 3 m.
			spec := base(protocol.BEAT, "", run.Clustered(4, 4), fast(4))
			spec.Scenario = scenario.MustParse("byz@0s:15:forgecut;crash@30s:0;recover@1m30s:0")
			return spec
		}, "dd41956e648fc1b8ca7ec8b141ed8699b1f17ac8baca0d9d6ae798668af0f13d"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cell+"/"+tc.name, func(t *testing.T) {
			t.Parallel()
			spec := tc.spec()
			rep, err := run.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			// An event scripted for after the run's end pins nothing.
			for _, ev := range spec.Scenario.Events {
				if ev.At >= rep.Duration {
					t.Errorf("%v fires after the run ended at %v", ev, rep.Duration)
				}
			}
			if got := reportDigest(t, rep); got != tc.want {
				t.Errorf("%s trajectory moved:\n got  %s\n want %s", tc.name, got, tc.want)
			}
		})
	}
}
