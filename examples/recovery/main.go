// Recovery: crash a replica mid-run and watch it rejoin the replicated
// log. Node 2 goes down around epoch 5 — a crash pauses it, so it keeps
// its log, its mempool and every epoch it had open, with each vote and
// value in them — comes back around epoch 10, and catches up through the
// epoch mux's unknown-epoch signal and NACK retransmission, converging to
// the same gap-free log as everyone else.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
)

func main() {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(14)
	spec.Seed = 42
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(4*time.Minute, 2),   // ~epoch 5 at the default cadence
		scenario.RecoverAt(8*time.Minute, 2), // ~epoch 10
	)

	fmt.Println("4-node wireless HoneyBadgerBFT-SC chain; node 2 crashes at 4m, recovers at 8m")
	res, err := run.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nall %d epochs committed in %v of simulated time\n",
		res.Chain.EpochsCommitted, res.Duration.Round(time.Second))
	for i, nodeLog := range res.Chain.Logs {
		txs := 0
		for _, e := range nodeLog {
			txs += len(e.Txs)
		}
		role := ""
		if i == 2 {
			role = "  <- crashed at 4m, recovered at 8m, caught up"
		}
		fmt.Printf("  node %d: %2d epochs, %3d txs committed%s\n", i, len(nodeLog), txs, role)
	}
	fmt.Printf("\nthroughput %.2f B/s; %d channel accesses (%d collisions)\n",
		res.Chain.ThroughputBps, res.Accesses, res.Collisions)
	fmt.Println("\nthe recovered replica rejoined mid-run: it resumed the epochs it had open")
	fmt.Println("where it left them, frames for epochs it had never opened tripped")
	fmt.Println("core.Mux.OnUnknownEpoch, and the peers — holding every epoch it had not")
	fmt.Println("moved past — answered the undone bits of its NACK rows with the proposals,")
	fmt.Println("votes, and decryption shares it missed while it was down.")
}
