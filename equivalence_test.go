package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/crypto"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// TestIdealSuiteEquivalence is the evidence that a run's ideal threshold
// suite (crypto.Deal's Suite.Ops) decides everything the real arithmetic
// decides: under the real keys (crypto.RealSuites), the serial golden
// sample of every BENCH file and every cell of BENCH_byz.json reproduce
// their committed rows, which the ideal suite reproduces too
// (TestGoldenSerialSample, TestGoldenSweepsParallelDeterminism), and a
// 4-epoch slice of each benchmark workload's Spec has the same trajectory
// digest under both suites.
func TestIdealSuiteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden sample and BENCH_byz.json under the real arithmetic")
	}
	digests := map[string]string{}
	for _, w := range equivalenceWorkloads() {
		digests[w.name] = equivalenceDigest(t, w.spec)
	}
	defer crypto.RealSuites()()
	for _, w := range equivalenceWorkloads() {
		if got := equivalenceDigest(t, w.spec); got != digests[w.name] {
			t.Errorf("%s: the real suite's trajectory %s, the ideal suite's %s", w.name, got, digests[w.name])
		}
	}
	for _, e := range bench.Experiments() {
		if e.Golden == "" {
			continue
		}
		t.Run(e.Golden+"/sample", func(t *testing.T) { checkGolden(t, e, 2, e.Sample) })
		if e.Golden == "BENCH_byz.json" && !raceEnabled {
			t.Run(e.Golden+"/all", func(t *testing.T) { checkGolden(t, e, 2, "") })
		}
	}
}

type equivalenceWorkload struct {
	name string
	spec run.Spec
}

// equivalenceWorkloads are the four benchmark workloads' Specs
// (benchmark/workloads.go), 4 epochs of each, at input seed 1.
func equivalenceWorkloads() []equivalenceWorkload {
	hbSC := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	hbSC.Workload = run.Chain(4)
	hbSC.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Clients: 1000, Rate: 0.012}

	hbLC := run.Defaults(protocol.HoneyBadger, protocol.CoinLocal)
	hbLC.Batched, hbLC.Encrypt = false, false
	hbLC.Workload = run.Chain(4)
	hbLC.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Clients: 1000, Rate: 0.006}

	alea := run.Defaults(protocol.AleaKind, protocol.CoinSig)
	alea.Workload = run.Chain(4)
	alea.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Clients: 1000, Rate: 0.08,
		OnMean: 2 * time.Minute, OffMean: 8 * time.Minute}
	alea.Workload.Mempool.MaxPendingBytes = 2048
	alea.Scenario = scenario.MustParse("churn@10m+1000h:60m,10m")

	dumbo := run.Defaults(protocol.DumboKind, protocol.CoinSig)
	dumbo.Topology = run.Clustered(4, 4)
	dumbo.Workload = run.Chain(4)
	dumbo.Workload.TxInterval = 50 * time.Second

	out := []equivalenceWorkload{{"hb_sc_batched", hbSC}, {"hb_lc_baseline", hbLC}, {"alea_overload", alea}, {"dumbo_clustered", dumbo}}
	for i := range out {
		out[i].spec.Seed = 1
	}
	return out
}

// equivalenceDigest runs spec and hashes what it yields: the Report's
// JSON, the committed logs of both tiers and the per-transaction latency
// sample.
func equivalenceDigest(t *testing.T, spec run.Spec) string {
	t.Helper()
	rep, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	var b [8]byte
	logs := func(all [][]protocol.LogEntry) {
		for _, log := range all {
			for _, entry := range log {
				binary.BigEndian.PutUint64(b[:], uint64(entry.Epoch))
				h.Write(b[:])
				h.Write(protocol.EncodeBatch(entry.Txs))
			}
		}
	}
	if c := rep.Chain; c != nil {
		logs(c.Logs)
		for _, d := range c.TxLatencySample {
			binary.BigEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
	}
	if rep.Tiers != nil {
		logs(rep.Tiers.GlobalLogs)
	}
	return hex.EncodeToString(h.Sum(nil))
}
