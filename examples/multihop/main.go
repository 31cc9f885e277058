// Multi-hop: the paper's Sec. V-B two-tier deployment — 16 nodes in 4
// single-hop clusters, local consensus per cluster, one uplink seat per
// cluster running global consensus on a separate channel over the
// clusters' threshold-signed cuts (each handed up by a rotating member
// that holds the certificate), and frontier beacons carrying the global
// order back into the clusters. In run.Spec terms this is the Clustered
// topology crossed with the one-shot workload, a depth-1 chain: an epoch
// is done once every member has heard a global order holding 3 of the 4
// clusters' cuts of it.
//
//	go run ./examples/multihop
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
)

func main() {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Topology = run.Clustered(4, 4)
	spec.Workload = run.OneShot(2)
	spec.Seed = 11

	fmt.Println("16 nodes, 4 clusters, wireless HoneyBadgerBFT-SC, two-tier consensus")
	res, err := run.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	for epoch, lat := range res.OneShot.EpochLatencies {
		fmt.Printf("  epoch %d: global order at every node after %v\n",
			epoch, lat.Round(time.Millisecond))
	}
	fmt.Printf("\nthroughput: %.1f TPM across all clusters (%d txs)\n", res.OneShot.TPM, res.OneShot.DeliveredTxs)
	fmt.Printf("channel accesses: %d local + %d global\n", res.Tiers.LocalAccesses, res.Tiers.GlobalAccesses)
	fmt.Println("\nclusters run in parallel on separate channels; only the 4 seats")
	fmt.Println("contend on the global channel, which is why per-cluster contention")
	fmt.Println("stays at single-hop levels (the paper's Fig. 13b regime).")
}
