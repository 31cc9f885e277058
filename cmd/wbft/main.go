// Command wbft runs one wireless asynchronous BFT consensus experiment
// from flags and prints the measured results. Every cell of the
// experiment matrix — Topology (single | clustered) × Workload (oneshot |
// chain) — is reachable from the same flag surface; the flags map 1:1
// onto run.Spec.
//
// Usage:
//
//	wbft [-protocol honeybadger|beat|dumbo|alea] [-coin LC|SC|CP] [-baseline]
//	     [-topology single|clustered] [-workload oneshot|chain]
//	     [-epochs N] [-seed N] [-loss P] [-heavy] [-json FILE]
//	     [-crash 3] [-scenario SPEC]
//	     [-n N]                                  (single-hop topology, N = 3f+1)
//	     [-clusters M] [-percluster N]           (clustered topology)
//	     [-batch N] [-txsize N]                  (oneshot workload)
//	     [-depth N] [-txsize N] [-txinterval D]  (chain workload)
//	     [-arrival poisson|onoff] [-rate TPS] [-clients N]
//	     [-onmean D] [-offmean D] [-mempool-cap BYTES]
//	                                             (chain open-loop traffic)
//
//	wbft chain [flags]   alias for -workload chain
//
// Both workloads run the SMR deployment: a replicated log across many
// epochs, and under -topology clustered local chains per cluster whose
// certified cuts are ordered on the global tier. The chain workload feeds
// it continuous client traffic through a pipeline -depth deep; the oneshot
// workload is a depth-1 chain of fixed -batch proposals, each epoch timed
// on its own (the paper's evaluation runs).
//
// -arrival swaps the fixed -txinterval client process for a seed-derived
// one (internal/traffic; under -topology clustered every arrival is one
// transaction per cluster, like a fixed tick): "poisson" offers memoryless aggregate arrivals at -rate tx/s; "onoff"
// spreads the same rate over -clients bursty clients, each alternating
// exponential on (-onmean) and off (-offmean) phases. -mempool-cap
// bounds each node's pending+in-flight payload bytes; submissions beyond
// it are rejected at admission and counted (backpressure, default off).
//
// -scenario scripts timed faults in the scenario DSL (see
// internal/scenario.Parse): ';'-separated events of the form
// kind[@at[+duration]][:args], with the full event vocabulary
//
//	crash@30m:3              node 3 off the air, paused with all its state
//	recover@55m:3            node 3 resumes where it stopped
//	partition@10m:0,1/2,3    split {0,1} from {2,3}
//	heal@20m                 end the partition
//	loss@5m+90s:0.5          50% delivery loss for 90s
//	jam@40m+60s              total loss for 60s
//	delay:0.25,10s           async delay adversary (prob, max extra delay)
//	byz@0s:3:equivocate      node 3 actively Byzantine: equivocate,
//	                         withhold, garbage, flipvotes, or forgecut
//	                         (internal/byz)
//	mobility@0s+2h:25,800    random-waypoint motion at 25 m/s with 800 m
//	                         radio range on a 1 km x 1 km field
//	dutycycle@0s:0.6,90s     radios awake 60% of each 90s cycle, phases
//	                         staggered per node
//	churn@10m+2h:20m,5m      every 20m a random node crashes, rejoining
//	                         5m later over the catch-up path
//
// -crash N is shorthand for a crash at t=0 that never recovers. Under the
// clustered topology, scenario node ids are flat:
// cluster*percluster + in-cluster index.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func main() {
	args := os.Args[1:]
	// Compat alias from the pre-run.Spec CLI: `wbft chain ...` selects the
	// chain workload.
	if len(args) > 0 && args[0] == "chain" {
		args = append([]string{"-workload", "chain"}, args[1:]...)
	}

	fs := flag.NewFlagSet("wbft", flag.ExitOnError)
	var (
		proto    = fs.String("protocol", "honeybadger", list(protocol.Kinds()))
		coin     = fs.String("coin", "SC", list(protocol.Coins())+": local | threshold sig | coin flipping")
		baseline = fs.Bool("baseline", false, "disable ConsensusBatcher (per-instance packets)")
		topology = fs.String("topology", "single", "single (one channel) | clustered (two-tier, per-cluster channels)")
		workload = fs.String("workload", "oneshot", "oneshot (fixed batches, a depth-1 chain timed per epoch) | chain (pipelined SMR log of client traffic)")
		epochs   = fs.Int("epochs", 0, "epochs every correct node commits (0 = workload default)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		loss     = fs.Float64("loss", 0.02, "per-receiver frame loss probability")
		heavy    = fs.Bool("heavy", false, "heavy crypto parameter set (BN254-equivalent)")
		crash    = fs.String("crash", "", "comma-separated node ids to crash at t=0")
		scen     = fs.String("scenario", "", "scripted fault DSL: "+list(scenario.Kinds())+" events (e.g. crash@30m:3;byz@0s:2:garbage)")
		jsonPath = fs.String("json", "", "also write the run.Report JSON to this file")

		n          = fs.Int("n", 4, "single: group size N (3f+1)")
		clusters   = fs.Int("clusters", 4, "clustered: number of clusters M (3f+1)")
		perCluster = fs.Int("percluster", 4, "clustered: nodes per cluster (3f+1)")

		batch      = fs.Int("batch", 4, "oneshot: transactions per proposal")
		txsize     = fs.Int("txsize", 64, "bytes per transaction")
		depth      = fs.Int("depth", 2, "chain: pipeline depth (concurrent epochs)")
		txinterval = fs.Duration("txinterval", 4*time.Second, "chain: gap of the fixed client arrival process")

		arrival    = fs.String("arrival", "", "chain: client arrival process, poisson | onoff ('' = one arrival every -txinterval)")
		rate       = fs.Float64("rate", 0.02, "chain: aggregate offered rate in tx/s (with -arrival)")
		clients    = fs.Int("clients", 0, "chain: simulated client population (with -arrival; 0 = default 1000)")
		onmean     = fs.Duration("onmean", 0, "chain: mean on-phase length per client (with -arrival onoff; 0 = default)")
		offmean    = fs.Duration("offmean", 0, "chain: mean off-phase length per client (with -arrival onoff; 0 = default)")
		mempoolCap = fs.Int("mempool-cap", 0, "chain: max pending+in-flight mempool payload bytes per node (0 = unbounded)")
	)
	fs.Parse(args)

	spec := run.Defaults(
		check("protocol", protocol.Kind(*proto), protocol.Kinds()),
		check("coin", protocol.CoinKind(*coin), protocol.Coins()))
	spec.Batched = !*baseline
	spec.Seed = *seed
	spec.Net.LossProb = *loss
	if *heavy {
		spec.Crypto = crypto.HeavyConfig()
	}
	spec.Scenario = buildScenario(*scen, *crash)

	switch *topology {
	case "single":
		spec.Topology = run.SingleHop()
		spec.N = *n
	case "clustered":
		if *n != spec.N {
			fmt.Fprintln(os.Stderr, "wbft: -n sizes the single-hop group; a cluster's size is -percluster")
			os.Exit(2)
		}
		spec.Topology = run.Clustered(*clusters, *perCluster)
	default:
		fmt.Fprintf(os.Stderr, "wbft: unknown topology %q\n", *topology)
		os.Exit(2)
	}
	switch *workload {
	case "oneshot":
		spec.Workload = run.OneShot(*epochs)
		spec.Workload.BatchSize = *batch
		spec.Workload.TxSize = *txsize
		spec.Deadline = 8 * time.Hour
	case "chain":
		spec.Workload = run.Chain(*epochs)
		if spec.Workload.Epochs <= 0 {
			spec.Workload.Epochs = 20
		}
		spec.Workload.Window = *depth
		spec.Workload.TxSize = *txsize
		spec.Workload.TxInterval = *txinterval
		spec.Workload.Mempool.MaxPendingBytes = *mempoolCap
		if *arrival != "" {
			spec.Workload.Arrival = traffic.Pattern{
				Kind:    traffic.Kind(*arrival),
				Rate:    *rate,
				Clients: *clients,
				OnMean:  *onmean,
				OffMean: *offmean,
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "wbft: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbft:", err)
		os.Exit(1)
	}
	printReport(res)
	if *jsonPath != "" {
		if err := writeReportJSON(*jsonPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "wbft:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// writeReportJSON records the run's Report in its stable JSON schema
// (EXPERIMENTS.md, "BENCH trajectories and the Report schema").
func writeReportJSON(path string, res *run.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildScenario combines the -scenario DSL with the -crash shorthand
// (comma-separated node ids crashed at t=0, never recovered).
func buildScenario(spec, crash string) scenario.Plan {
	plan, err := scenario.Parse(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbft:", err)
		os.Exit(2)
	}
	if crash != "" {
		for _, part := range strings.Split(crash, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "wbft: bad -crash value %q\n", part)
				os.Exit(2)
			}
			plan = plan.Then(scenario.CrashAt(0, id))
		}
	}
	return plan
}

// check resolves a flag against its vocabulary — -protocol against the
// engine registry, so newly registered engines are accepted (and listed
// on error) with no CLI changes.
func check[T ~string](flag string, v T, known []T) T {
	if !slices.Contains(known, v) {
		fmt.Fprintf(os.Stderr, "wbft: unknown %s %q (%s)\n", flag, v, list(known))
		os.Exit(2)
	}
	return v
}

// list renders a vocabulary for flag help and errors.
func list[T ~string](vals []T) string {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = string(v)
	}
	return strings.Join(names, " | ")
}

// printReport renders the Report: the flat counters plus whichever
// sections the matrix cell produced.
func printReport(res *run.Report) {
	fmt.Printf("experiment      %s-%s, %s x %s (batched=%v)\n",
		res.Protocol, res.Coin, res.Topology, res.Workload, res.Batched)

	if osr := res.OneShot; osr != nil {
		fmt.Printf("epochs          %d\n", len(osr.EpochLatencies))
		for i, l := range osr.EpochLatencies {
			fmt.Printf("  epoch %d       %v\n", i, l.Round(time.Millisecond))
		}
		fmt.Printf("mean latency    %v\n", osr.MeanLatency.Round(time.Millisecond))
		fmt.Printf("throughput      %.1f TPM\n", osr.TPM)
		fmt.Printf("delivered txs   %d\n", osr.DeliveredTxs)
	}
	if c := res.Chain; c != nil {
		fmt.Printf("epochs          %d committed per group, gap-free, identical at all correct nodes\n", c.EpochsCommitted)
		fmt.Printf("virtual time    %v\n", res.Duration.Round(time.Second))
		fmt.Printf("committed txs   %d (%d offered; rest is mempool backlog) (%d duplicate proposals suppressed)\n",
			c.CommittedTxs, c.SubmittedTxs, c.DedupDropped)
		fmt.Printf("throughput      %.2f committed B/s (%d bytes total)\n", c.ThroughputBps, c.CommittedBytes)
		fmt.Printf("commit latency  %v mean (epoch start -> commit)\n", c.MeanCommitLatency.Round(time.Millisecond))
		if lat := c.TxLatency; lat != nil {
			fmt.Printf("tx latency      p50 %v  p90 %v  p99 %v  max %v (submit -> commit, %d txs)\n",
				lat.P50.Round(time.Millisecond), lat.P90.Round(time.Millisecond),
				lat.P99.Round(time.Millisecond), lat.Max.Round(time.Millisecond), lat.Count)
		}
		if c.AdmissionRejected > 0 || c.PeakMempoolBytes > 0 {
			fmt.Printf("mempool         %d bytes peak pooled, %d submissions rejected at admission\n",
				c.PeakMempoolBytes, c.AdmissionRejected)
		}
		fmt.Printf("epoch cadence   %v between commits\n",
			(res.Duration / time.Duration(c.EpochsCommitted)).Round(time.Millisecond))
		fmt.Printf("open epochs     %d peak (pipeline + GC lag bound)\n", c.MaxOpenEpochs)
	}
	fmt.Printf("chan accesses   %d (collisions %d)\n", res.Accesses, res.Collisions)
	fmt.Printf("bytes on air    %d\n", res.BytesOnAir)
	fmt.Printf("signed packets  %d (sign ops %d, verify ops %d)\n", res.LogicalSent, res.SignOps, res.VerifyOps)
	if tr := res.Tiers; tr != nil {
		fmt.Printf("local accesses  %d\nglobal accesses %d\n", tr.LocalAccesses, tr.GlobalAccesses)
		if res.Chain != nil {
			fmt.Printf("global order    %d cluster cuts in %d global entries\n", tr.OrderedCuts, tr.GlobalEntries)
		}
	}
	if eb := res.EntryBytes; eb != nil {
		for k := range eb {
			for p, c := range eb[k] {
				if c != [3]uint64{} {
					fmt.Printf("entry bytes     %-10s %-8s first %d  asked %d  timer %d\n",
						kindNames[k], phaseNames[p], c[core.SendFirst], c[core.SendAsked], c[core.SendTimer])
				}
			}
		}
	}
}

// kindNames and phaseNames name the entry-byte ledger's rows.
var (
	kindNames  = [packet.KindLimit]string{"?", "RBC", "PRBC", "CBC-value", "CBC-commit", "ABA", "DEC", "GLOBAL", "VCBC"}
	phaseNames = [packet.PhaseLimit]string{"?", "INITIAL", "ECHO", "READY", "DONE", "FINISH", "BVAL", "AUX",
		"SHARE", "VOTE1", "VOTE2", "VOTE3", "DECSHARE", "REPAIR", "DECIDED"}
)
