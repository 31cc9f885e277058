package main

import "sort"

// Metric is one measured value with its unit, as printed on the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a metric name to its value.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64) { m[name] = Metric{Value: v, Unit: unitOf[name]} }

// names returns the metric names in sorted order.
func (m Metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The two clocks. A host metric is a wall-clock or allocator measurement of
// the simulator and is noisy; a virtual metric comes from run.Report and is
// a pure function of (Spec, seed), so two builds that differ only in host
// cost must agree on it exactly.
const (
	clockHost    = "host"
	clockVirtual = "virtual"
)

type metricDef struct {
	Name, Unit, Clock string
}

// endToEnd is the fixed end-to-end metric set, emitted by every workload
// with -trace 0. BENCHMARK.json carries the same names and units plus the
// direction and the regression bound; smoke_test.go keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", clockHost},
	{"host_s", "s", clockHost},
	{"alloc_mb", "MB", clockHost},
	{"epoch_vs", "virt_s", clockVirtual},
	{"commit_vs", "virt_s", clockVirtual},
	{"tx_p50_vs", "virt_s", clockVirtual},
	{"tx_p99_vs", "virt_s", clockVirtual},
	{"goodput_Bps", "B/virt_s", clockVirtual},
	{"airtime_eff", "ratio", clockVirtual},
	{"admit_share", "ratio", clockVirtual},
}

// Component kinds, engines and profile buckets that expand into per-layer
// metric names.
var (
	componentKinds = []string{"rbc", "prbc", "cbc", "vcbc", "aba_lc", "aba_sc", "aba_cp", "decrypt"}
	engineNames    = []string{"hb_sc", "beat_cp", "dumbo_sc", "alea_sc"}
	// cpuBuckets are the packages under internal/ a CPU sample can be
	// attributed to, plus the Go runtime (GC, allocator, maps) and the
	// remainder (node, byz, the benchmark itself, the standard library
	// called from no internal frame).
	cpuBuckets = []string{"sim", "wireless", "packet", "core", "crypto", "component",
		"protocol", "traffic", "scenario", "run", "runtime", "other"}
)

// perLayer is the per-layer metric set, emitted with -trace 1.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"sim.ns_per_event", "ns", clockHost},
		{"sim.allocs_per_event", "count", clockHost},
		{"sim.cpu_exec_ns", "ns", clockHost},

		{"wireless.ns_per_access", "ns", clockHost},
		{"wireless.allocs_per_access", "count", clockHost},
		{"wireless.collision_share", "ratio", clockVirtual},
		{"wireless.accesses_per_epoch", "count", clockVirtual},
		{"wireless.air_bytes_per_epoch", "B", clockVirtual},
		{"wireless.air_util", "ratio", clockVirtual},

		{"packet.encode_ns", "ns", clockHost},
		{"packet.decode_ns", "ns", clockHost},
		{"packet.encode_ns_small", "ns", clockHost},
		{"packet.decode_ns_small", "ns", clockHost},
		{"packet.allocs_per_roundtrip", "count", clockHost},

		{"core.flush_us_batched", "us", clockHost},
		{"core.flush_us_baseline", "us", clockHost},
		{"core.receive_us", "us", clockHost},
		{"core.mux_route_ns", "ns", clockHost},
		{"core.logical_per_epoch", "count", clockVirtual},

		{"crypto.ts_sign_us", "us", clockHost},
		{"crypto.ts_verify_share_us", "us", clockHost},
		{"crypto.ts_combine_us", "us", clockHost},
		{"crypto.ts_verify_us", "us", clockHost},
		{"crypto.tc_share_us", "us", clockHost},
		{"crypto.tc_verify_share_us", "us", clockHost},
		{"crypto.tc_combine_us", "us", clockHost},
		{"crypto.te_encrypt_us", "us", clockHost},
		{"crypto.te_dec_share_us", "us", clockHost},
		{"crypto.te_verify_share_us", "us", clockHost},
		{"crypto.te_combine_us", "us", clockHost},
		{"crypto.deal_ms", "ms", clockHost},
		{"crypto.sign_ops_per_epoch", "count", clockVirtual},
		{"crypto.verify_ops_per_epoch", "count", clockVirtual},
	}
	for _, k := range componentKinds {
		d = append(d,
			metricDef{"component." + k + ".host_ms", "ms", clockHost},
			metricDef{"component." + k + ".virt_s", "virt_s", clockVirtual})
	}
	d = append(d,
		metricDef{"protocol.mempool.add_ns", "ns", clockHost},
		metricDef{"protocol.mempool.cut_us", "us", clockHost},
		metricDef{"protocol.mempool.add_ns_100k", "ns", clockHost},
		metricDef{"protocol.mempool.cut_us_100k", "us", clockHost},
		metricDef{"protocol.mempool.reject_share", "ratio", clockVirtual},
		metricDef{"protocol.batch_codec_ns", "ns", clockHost})
	for _, e := range engineNames {
		d = append(d,
			metricDef{"protocol." + e + ".epoch_host_ms", "ms", clockHost},
			metricDef{"protocol." + e + ".epoch_virt_s", "virt_s", clockVirtual})
	}
	d = append(d,
		metricDef{"traffic.ns_per_arrival", "ns", clockHost},
		metricDef{"traffic.ns_per_arrival_onoff", "ns", clockHost},
		metricDef{"scenario.parse_us", "us", clockHost},
		metricDef{"run.host_us_per_epoch", "us", clockHost},
		metricDef{"run.host_us_per_frame", "us", clockHost},
		metricDef{"run.mallocs_per_frame", "count", clockHost},
		metricDef{"run.virt_s_per_host_s", "ratio", clockHost},
		metricDef{"run.trace_overhead", "ratio", clockHost})
	for _, b := range cpuBuckets {
		d = append(d, metricDef{"run.cpu_share." + b, "ratio", clockHost})
	}
	return d
}

// unitOf and clockOf index both metric sets by name.
var unitOf, clockOf = indexDefs()

func indexDefs() (unit, clock map[string]string) {
	unit, clock = map[string]string{}, map[string]string{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			unit[d.Name], clock[d.Name] = d.Unit, d.Clock
		}
	}
	return unit, clock
}
