// Byzantine: run the replicated log with an actively malicious replica
// and watch the defenses hold. Node 3 is Byzantine from the start — first
// a garbage-spewing one (malformed proposals, undecodable threshold
// shares), then an equivocator (conflicting proposals and votes to
// different peers) — while the three honest nodes must still commit
// identical gap-free logs containing only genuine client transactions.
//
//	go run ./examples/byzantine
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
	for _, behavior := range []string{byz.NameGarbage, byz.NameEquivocate} {
		runBehavior(behavior)
	}
	fmt.Println("every adversarial contribution was either verified away (rejected")
	fmt.Println("shares, certificates, proofs), outvoted by the 2f+1 honest quorums,")
	fmt.Println("or dropped as a malformed batch at the commit layer — the honest log")
	fmt.Println("never saw a forged byte. See the threat model in DESIGN.md.")
}

func runBehavior(behavior string) {
	spec := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Workload = run.Chain(4)
	spec.Seed = 7
	spec.Scenario = scenario.Byz(behavior, 3)

	fmt.Printf("4-node wireless HoneyBadgerBFT-SC chain; node 3 runs %q (scenario %q)\n",
		behavior, spec.Scenario.String())
	res, err := run.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	if forged := protocol.CountForged(res.Chain.Logs, spec.Workload.TxSize, res.Chain.SubmittedTxs); forged > 0 {
		log.Fatalf("SAFETY VIOLATION: %d forged transactions committed", forged)
	}
	fmt.Printf("  %d epochs committed in %v: honest logs identical, gap-free, zero forged txs\n",
		res.Chain.EpochsCommitted, res.Duration.Round(time.Second))
	fmt.Printf("  %d Byzantine contributions rejected by share/proof/proposal verification\n\n",
		res.Rejected)
}
