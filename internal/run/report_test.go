package run

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/protocol"
)

// TestReportJSONSchemaStable pins the Report's JSON encoding — the
// stable schema EXPERIMENTS.md documents once and `wbft -json` emits —
// so a field rename or tag typo fails here instead of silently drifting
// under every consumer.
func TestReportJSONSchemaStable(t *testing.T) {
	spec := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 1)
	spec.Topology = Clustered(4, 4)
	spec.Workload = Chain(2)
	spec.Workload.TxInterval = 2_000_000_000
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"protocol", "coin", "batched", "topology", "workload", "seed",
		"duration_ns", "accesses", "collisions", "frames", "bytes_on_air",
		"held_ns", "logical_sent", "sign_ops", "verify_ops", "rejected",
		"chain", "tiers",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("Report JSON lost schema key %q", key)
		}
	}
	if _, ok := m["oneshot"]; ok {
		t.Error("chain-workload Report must omit the oneshot section")
	}
	chain, _ := m["chain"].(map[string]any)
	for _, key := range []string{
		"epochs_committed", "committed_txs", "committed_bytes",
		"throughput_Bps", "commit_latency_ns", "dedup_dropped",
		"submitted_txs", "max_open_epochs",
	} {
		if _, ok := chain[key]; !ok {
			t.Errorf("Report chain section lost schema key %q", key)
		}
	}
	tiers, _ := m["tiers"].(map[string]any)
	for _, key := range []string{
		"local_accesses", "global_accesses", "global_logical_sent",
		"global_entries", "ordered_cuts",
	} {
		if _, ok := tiers[key]; !ok {
			t.Errorf("Report tiers section lost schema key %q", key)
		}
	}
}
