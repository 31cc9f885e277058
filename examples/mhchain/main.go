// Clustered chain: the matrix cell the unified run API unlocked —
// pipelined multi-epoch SMR over the paper's two-tier wireless
// deployment. Four clusters of four order their own client streams into
// local replicated logs; the members of a cluster exchange f+1
// threshold-signature shares over each committed epoch's cut on their own
// channel and combine them into a cut certificate, which a rotating relay
// hands to the cluster's uplink seat; a second chain across the four
// seats pipelines the certified cuts into one cross-cluster total order,
// beaconed back down so every follower tracks the global frontier.
// The run is adversarial on both axes: cluster 3's member 15 turns its
// relay seat Byzantine ("forgecut" — the cut records it submits claim a
// cluster it does not control), and midway through the relay leader of
// cluster 0 crashes, and the next member holding each cut's certificate
// relays the cuts the crashed leader held. Every forged cut is rejected by
// certificate verification at every honest seat; zero enter the order.
//
//	go run ./examples/mhchain
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/byz"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
)

func main() {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Topology = run.Clustered(4, 4)
	spec.Workload = run.Chain(5)
	spec.Workload.TxInterval = 2 * time.Second
	spec.Seed = 3
	spec.Scenario = scenario.Byz(byz.NameForgeCut, 15).Then( // cluster 3's seat forges cuts
		scenario.CrashAt(3*time.Minute, 0),   // cluster 0's epoch-0 relay leader
		scenario.RecoverAt(7*time.Minute, 0), // back for the tail of the run
	)

	fmt.Println("16 nodes in 4 clusters, HoneyBadgerBFT-SC chains on both tiers")
	fmt.Println("cluster 3's uplink seat forges cut records for clusters it does not control;")
	fmt.Println("node 0 (a rotating relay leader) crashes at 3m, recovers at 7m")
	res, err := run.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	c, tr := res.Chain, res.Tiers
	fmt.Printf("\nper-cluster logs: %d epochs committed by every honest node in %v\n",
		c.EpochsCommitted, res.Duration.Round(time.Second))
	fmt.Printf("cross-cluster order: %d certified cluster cuts pipelined into %d global entries\n",
		tr.OrderedCuts, tr.GlobalEntries)
	fmt.Printf("cut certificates: %d checked by the seats\n", tr.CutCerts.Verifies)
	fmt.Printf("forged cuts rejected across the seats: %d (zero entered the cut order)\n",
		tr.CutCerts.RejectedCuts)
	fmt.Printf("committed client txs: %d (%.2f B/s) with %d duplicates suppressed\n",
		c.CommittedTxs, c.ThroughputBps, c.DedupDropped)
	fmt.Printf("channel accesses: %d local + %d global\n", tr.LocalAccesses, tr.GlobalAccesses)

	for cl := 0; cl < 4; cl++ {
		ref := cl * 4 // member 0 of each cluster is honest (15 is the adversary)
		txs := 0
		for _, entry := range c.Logs[ref] {
			txs += len(entry.Txs)
		}
		fmt.Printf("  cluster %d: %d epochs, %d txs in its local log\n",
			cl, len(c.Logs[ref]), txs)
	}
	fmt.Println("\nrun.Run verified all of it: local agreement inside every cluster,")
	fmt.Println("agreement across the untainted seats' global logs, a valid f+1")
	fmt.Println("threshold certificate on every ordered cut, every certified cut")
	fmt.Println("matching the true committed entry it claims, and every follower's")
	fmt.Println("frontier beacon consistent with the global order — despite the forging")
	fmt.Println("seat and the relay leader's outage.")
}
