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
		}, "6ac8eb53e1d877ab8a14746a528ad4b9ed7fc0198253d3cfee7f8256af2fc7b6"},
		{"SingleHop×OneShot", "Dumbo-LC-baseline-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinLocal, run.SingleHop(), run.OneShot(2))
			spec.Batched = false
			spec.Scenario = scenario.MustParse("crash@0s:3")
			return spec
		}, "404b6a3ddcdc7fd3b77e0dd4561755fbdd57ec7be3bdeb77c134ec83b89750ba"},
		{"SingleHop×OneShot", "BEAT-crash-recover", func() run.Spec {
			// Node 3 dies in epoch 0 and rejoins at an epoch boundary.
			spec := base(protocol.BEAT, "", run.SingleHop(), run.OneShot(4))
			spec.Scenario = scenario.MustParse("crash@30s:3;recover@1m30s:3")
			return spec
		}, "6fa16fc41d203b0ff62706fa2ce4cceb120ea2497e08a5f09c810341fd5b5b04"},
		{"Clustered×OneShot", "HB-SC", func() run.Spec {
			return base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
		}, "d9def9fa4c98debed34c3596fb2380e7f1c3458b2f36838cab5dd2316c3a030f"},
		{"Clustered×OneShot", "BEAT", func() run.Spec {
			return base(protocol.BEAT, "", run.Clustered(4, 4), run.OneShot(1))
		}, "9e11008f1d55e5c0a06a2dd799a7542e33bb817c3e19a021c98ba14fd259715d"},
		{"Clustered×OneShot", "Dumbo-SC-follower-crash-recover-byz", func() run.Spec {
			// Cluster 0's member 1 (a follower in epoch 0) crashes and
			// rejoins as epoch 1's leader; cluster 2's member 3 is
			// Byzantine but never leads. Epoch 0 ends before 2 m, so the
			// rejoin comes at 1 m: a leader still down when its epoch
			// starts would never report.
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), run.OneShot(2))
			spec.Scenario = scenario.MustParse("crash@10s:1;recover@1m:1;byz@0s:11:garbage")
			return spec
		}, "618f2b7706e55dba99421ccff8cf09f9377a7b33cd08061665e8bf36f4179260"},
		{"SingleHop×Chain", "fixed-interval-crash-recover", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.GCLag = 4
			spec.Scenario = scenario.MustParse("crash@4m:2;recover@9m:2")
			return spec
		}, "12544b5331579123dbf5e68aaf9e10bf678a502d7b9ba84ff3d999a7dd5cbcf1"},
		{"SingleHop×Chain", "poisson", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.SingleHop(), fast(3))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Rate: 0.05, Clients: 100}
			return spec
		}, "0595201514140bdadd61a07228a58aba4a05f81f48e6d19fde03ec5c656e9ab1"},
		{"SingleHop×Chain", "Alea-onoff-capped-byz", func() run.Spec {
			spec := base(protocol.AleaKind, protocol.CoinSig, run.SingleHop(), fast(4))
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Rate: 0.3, Clients: 20,
				OnMean: time.Minute, OffMean: 2 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 1024
			spec.Scenario = scenario.MustParse("byz@1m:3:equivocate")
			return spec
		}, "e2ca5d9db9c0c200b0e1481fa566aa970ddd563b5c9ef3e5029c8034eae186df"},
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
		}, "397e2f2fced6d7b707d4a4de2d112acaf5691369bf8658e34d8ce1a1f53ad6b5"},
		{"Clustered×Chain", "Dumbo-SC-relay-leader-crash", func() run.Spec {
			spec := base(protocol.DumboKind, protocol.CoinSig, run.Clustered(4, 4), fast(3))
			// Cluster 0 member 1 is the designated relay for local epoch 1.
			spec.Scenario = scenario.MustParse("crash@3m:1")
			return spec
		}, "b88cb5e1cce3a04e4fd84da07a83108f7b001de07205be98e226dcbe2eff9864"},
		{"Clustered×Chain", "HB-SC-byz-member", func() run.Spec {
			spec := base(protocol.HoneyBadger, protocol.CoinSig, run.Clustered(4, 4), fast(2))
			spec.Scenario = scenario.MustParse("byz@0s:5:garbage")
			return spec
		}, "739baaeb98355152f3e86e5ab273b628a2348ada682e99705825622017ee8df9"},
		{"Clustered×Chain", "BEAT-forgecut-relay-crash-recover", func() run.Spec {
			// A forging seat the whole run, and cluster 0's member 0 away
			// across several relay turns, back through mid-run catch-up.
			spec := base(protocol.BEAT, "", run.Clustered(4, 4), fast(4))
			spec.Workload.GCLag = 4
			spec.Scenario = scenario.MustParse("byz@0s:15:forgecut;crash@5m:0;recover@20m:0")
			return spec
		}, "2d0919550be38260de75fa7af11e42fc77946143b0c17a5a48d00dbd3900ef03"},
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
