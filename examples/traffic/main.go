// Traffic demo: drive one engine with open-loop client load — arrivals
// keep coming at a configured rate whether or not the chain keeps up —
// and watch the saturation knee form: committed throughput plateaus at
// channel capacity, per-transaction tail latency climbs, and the bounded
// mempool starts rejecting submissions instead of growing without limit.
//
//	go run ./examples/traffic
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/traffic"
)

func runRate(rate float64) *run.Report {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(4)
	spec.Workload.Arrival = traffic.Pattern{
		Kind:    traffic.Poisson,
		Rate:    rate,
		Clients: 1000,
	}
	// 2 KiB admission cap: overload becomes counted rejections, not an
	// unbounded backlog.
	spec.Workload.Mempool.MaxPendingBytes = 2048
	spec.Seed = 42
	res, err := run.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("open-loop Poisson load on HoneyBadgerBFT-SC: 4 nodes, 4 chained epochs,")
	fmt.Println("1000 simulated clients, 2 KiB mempool admission cap per node")

	// The measured commit capacity on this channel is ~0.5 tx/s, so the
	// rates step from well under the knee to far past it.
	rates := []float64{0.02, 0.08, 0.32, 1.28}

	fmt.Printf("\n%8s %8s %10s %8s %8s %8s %8s %8s\n",
		"rate", "offered", "committed", "B/s", "p50", "p99", "reject", "pool")
	var overload *run.Report
	for _, r := range rates {
		res := runRate(r)
		c := res.Chain
		p50, p99 := time.Duration(0), time.Duration(0)
		if c.TxLatency != nil {
			p50, p99 = c.TxLatency.P50, c.TxLatency.P99
		}
		fmt.Printf("%8g %8d %10d %8.2f %8v %8v %8d %8d\n",
			r, c.SubmittedTxs, c.CommittedTxs, c.ThroughputBps,
			p50.Round(time.Second), p99.Round(time.Second),
			c.AdmissionRejected, c.PeakMempoolBytes)
		overload = res
	}

	// Bin the overload cell's raw latency sample to show where the tail
	// lives (run.Histogram log-spaces the bins).
	fmt.Printf("\nsubmit->commit latency at %g tx/s (log-spaced bins):\n", rates[len(rates)-1])
	for _, b := range run.Histogram(overload.Chain.TxLatencySample, 6) {
		fmt.Printf("  <= %8v  %s\n", b.UpTo.Round(time.Second), strings.Repeat("#", b.Count))
	}

	fmt.Println("\nThroughput flattens while offered load grows 4x per step: that is the")
	fmt.Println("knee. Past it the cap converts unbounded queueing into rejections and")
	fmt.Println("the committed transactions' tail latency keeps climbing.")
}
