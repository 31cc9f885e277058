package main

import (
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// refSeconds is the -seconds value the epoch counts below are sized for:
// on the 2-core reference box the timed seeds of one workload take about
// this long. Other -seconds values scale the epoch counts in
// proportion, so the amount of work — and with it every virtual metric —
// is a function of (-seed, -seconds) and never of how fast the host is.
const refSeconds = 16

// seedsPerRun is how many independent simulations one run pools. Six runs
// of a few host seconds each, rather than three of twice the length, is
// for the host clock: the reference box drifts by 10 % and more over tens
// of seconds, and host_s is the median seed's time, which six slices make
// robust against a slow phase that three do not. The virtual metrics pool
// the same number of epochs either way (about 3 k latencies, 30 beyond
// p99).
const seedsPerRun = 6

// epochDeadline bounds a chain run at this much virtual time per epoch.
// It is set explicitly because run.Run's whole-run default (8 h) is
// passed at about epoch 135 of hb_sc_batched.
const epochDeadline = 30 * time.Minute

// workload is one benchmark cell: a run.Spec over run.Defaults at a base
// epoch count, and the reason it was chosen.
type workload struct {
	Name string
	Why  string
	// Epochs is the chain target at -seconds = refSeconds.
	Epochs int
	// Clustered marks the two-tier deployment, whose driver exposes no
	// per-transaction latency sample and checks cut certificates.
	Clustered bool
	build     func(epochs int) run.Spec
}

// All workloads: N=4/F=1 per group, wireless.DefaultConfig() (5470 bit/s,
// 2 % loss, 240 B MTU — the injected message delay and loss),
// crypto.LightConfig(), 64 B transactions, pipeline depth 2. Clients are
// open loop on the virtual clock: an arrival is submitted at the instant
// the generator drew for it and its latency is timed from that instant, so
// generator lateness is zero by construction.
//
// bench.chainBase (TxInterval = 1 s) is deliberately not reused: at these
// run lengths it builds a backlog of more than 100 k transactions and
// Mempool.MarkCommitted alone becomes a quarter of the host time, which
// measures the backlog and not the system.
var workloads = []workload{
	{
		Name:   "hb_sc_batched",
		Why:    "Paper headline as SMR: HoneyBadger-SC over ConsensusBatcher with threshold encryption, Poisson load at half capacity; host time is about half threshold crypto.",
		Epochs: 200,
		build: func(epochs int) run.Spec {
			s := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
			s.Workload = run.Chain(epochs)
			s.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Clients: 1000, Rate: 0.012}
			return s
		},
	},
	{
		Name:   "hb_lc_baseline",
		Why:    "Paper per-instance baseline, local coin, no encryption: threshold crypto is bypassed, 3x the frames per epoch; host time is scheduler, codec, transport and allocator.",
		Epochs: 250,
		build: func(epochs int) run.Spec {
			s := run.Defaults(protocol.HoneyBadger, protocol.CoinLocal)
			s.Batched = false
			s.Encrypt = false
			s.Workload = run.Chain(epochs)
			s.Workload.Arrival = traffic.Pattern{Kind: traffic.Poisson, Clients: 1000, Rate: 0.006}
			return s
		},
	},
	{
		Name:   "alea_overload",
		Why:    "Alea-SC under bursty on-off load at 3x capacity with a 2 KiB mempool cap and an hourly crash-and-rejoin: admission, NACK repair and catch-up paths; goodput here is capacity.",
		Epochs: 150,
		build: func(epochs int) run.Spec {
			s := run.Defaults(protocol.AleaKind, protocol.CoinSig)
			s.Workload = run.Chain(epochs)
			s.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Clients: 1000, Rate: 0.08,
				OnMean: 2 * time.Minute, OffMean: 8 * time.Minute}
			s.Workload.Mempool.MaxPendingBytes = 2048
			s.Scenario = scenario.MustParse("churn@10m+1000h:60m,10m")
			return s
		},
	},
	{
		Name:      "dumbo_clustered",
		Why:       "Paper Sec. V-B deployment: Dumbo-SC on 4 clusters of 4 plus 4 global seats with threshold-signed cut certificates; guards the clustered driver and the legacy injector.",
		Epochs:    20,
		Clustered: true,
		build: func(epochs int) run.Spec {
			s := run.Defaults(protocol.DumboKind, protocol.CoinSig)
			s.Topology = run.Clustered(4, 4)
			s.Workload = run.Chain(epochs)
			// The open-loop generators are single-hop only.
			s.Workload.TxInterval = 50 * time.Second
			return s
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// layerEpochFactor lengthens the one seed the per-layer mode runs (untraced,
// then traced) relative to an end-to-end seed, so that the 100 Hz CPU
// profile of the traced repeat collects about 500 samples.
const layerEpochFactor = 2

// sizing is how much work one invocation does. The driver's values come
// from -seconds; the smoke test shrinks all of it.
type sizing struct {
	// EpochScale multiplies every workload's base epoch count.
	EpochScale float64
	// Seeds is how many seeds the end-to-end run pools.
	Seeds int
	// RigScale multiplies the layer rigs' iteration counts (0 = one
	// iteration each).
	RigScale float64
	// SetupBudget is how long set-up is re-sampled for, beyond the minimum
	// number of samples.
	SetupBudget time.Duration
}

func sizingFor(seconds int) sizing {
	return sizing{EpochScale: float64(seconds) / refSeconds, Seeds: seedsPerRun, RigScale: 1,
		SetupBudget: 2 * time.Second}
}

// epochs returns the workload's chain target under the sizing (at least 2,
// so the depth-2 pipeline overlaps).
func (z sizing) epochs(w workload) int {
	n := int(float64(w.Epochs)*z.EpochScale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// spec builds the workload's Spec for one seed.
func (z sizing) spec(w workload, seed int64) run.Spec {
	s := w.build(z.epochs(w))
	s.Seed = seed
	s.Deadline = time.Duration(s.Workload.Epochs) * epochDeadline
	return s
}

// layerSpec is the Spec the per-layer mode runs untraced and then traced.
func (z sizing) layerSpec(w workload, seed int64) run.Spec {
	z.EpochScale *= layerEpochFactor
	return z.spec(w, layerSeed(seed))
}

// seedsFor derives a run's simulation seeds from -seed: disjoint blocks, so
// runs at neighbouring -seed values share no simulation.
func seedsFor(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = (seed-1)*int64(n) + int64(i) + 1
	}
	return out
}

// layerSeed is the one simulation seed the per-layer mode runs. It is no
// end-to-end seed of the same -seed (nor a throwaway set-up seed): under
// -workload all both modes share a process, and a seed the end-to-end run
// had used would start with its threshold-crypto memos warm.
func layerSeed(seed int64) int64 {
	return seedsFor(seed, seedsPerRun)[0] + 64*throwawayStride
}
