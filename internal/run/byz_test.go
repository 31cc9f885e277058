package run

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// TestHonestSafetyUnderByzantineBehaviors runs every active-Byzantine
// behavior against both protocol families with f Byzantine nodes. The
// driver itself enforces the honest-safety bar: Run fails if the honest
// nodes' outputs disagree (AgreementCheck), so a nil error plus progress
// is the assertion.
func TestHonestSafetyUnderByzantineBehaviors(t *testing.T) {
	for _, behavior := range byz.Names() {
		for _, p := range []struct {
			name string
			kind protocol.Kind
		}{
			{"ACS", protocol.HoneyBadger},
			{"Dumbo", protocol.DumboKind},
		} {
			behavior, p := behavior, p
			t.Run(p.name+"/"+behavior, func(t *testing.T) {
				t.Parallel()
				spec := Defaults(p.kind, protocol.CoinSig)
				spec.Workload.Epochs = 2
				spec.Seed = 11
				spec.Scenario = scenario.Byz(behavior, spec.N-1) // f = 1 of N = 4
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("honest safety/liveness violated: %v", err)
				}
				if res.OneShot.DeliveredTxs == 0 {
					t.Fatal("no transactions delivered: the adversary stalled the honest nodes")
				}
				// Garbage produces cryptographically invalid shares and
				// undecodable payloads every epoch: the defenses must have
				// visibly rejected some, and Stats must surface the count.
				if behavior == byz.NameGarbage && res.Rejected == 0 {
					t.Error("garbage behavior ran but Stats.Rejected == 0")
				}
			})
		}
	}
}

// TestChainHonestSafetyUnderMidRunByzantine arms a behavior mid-run on
// the SMR pipeline: the honest chains must still commit identical
// gap-free logs of genuine client transactions, and the Byzantine node's
// mux must misbehave across the epochs opened after activation.
func TestChainHonestSafetyUnderMidRunByzantine(t *testing.T) {
	for _, behavior := range []string{byz.NameGarbage, byz.NameEquivocate} {
		behavior := behavior
		t.Run(behavior, func(t *testing.T) {
			t.Parallel()
			spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
			spec.Workload = Chain(5)
			spec.Workload.GCLag = spec.Workload.Epochs
			spec.Seed = 5
			spec.Scenario = scenario.Plan{}.Then(scenario.ByzAt(10*time.Minute, 3, behavior))
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("honest safety/liveness violated: %v", err)
			}
			if res.Chain.Logs[3] != nil {
				t.Error("Byzantine node's log included in the honest result set")
			}
			for i, log := range res.Chain.Logs[:3] {
				if len(log) != spec.Workload.Epochs {
					t.Fatalf("honest node %d committed %d epochs, want %d", i, len(log), spec.Workload.Epochs)
				}
			}
			if forged := protocol.CountForged(res.Chain.Logs, spec.Workload.TxSize, res.Chain.SubmittedTxs); forged != 0 {
				t.Fatalf("honest nodes committed %d forged transactions", forged)
			}
		})
	}
}

// TestEquivocatorForgesNothingInTheClear: an equivocating Dumbo proposer
// whose conflicting fragments are planted before its first win makes every
// honest node assemble the same mix of its two variants, and a plaintext
// mix of transaction bytes parses as a batch. The batch seal is what keeps
// it out of the log: over many seeds of the byz sweep's Dumbo-SC batched
// equivocate cell, no honest node may commit a forged transaction.
func TestEquivocatorForgesNothingInTheClear(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := Defaults(protocol.DumboKind, protocol.CoinSig)
			spec.Seed = seed
			spec.Workload = Chain(8)
			spec.Workload.TxInterval = time.Second
			spec.Workload.GCLag = spec.Workload.Epochs
			spec.Scenario = scenario.Byz(byz.NameEquivocate, spec.N-1)
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("honest safety/liveness violated: %v", err)
			}
			if forged := protocol.CountForged(res.Chain.Logs, spec.Workload.TxSize, res.Chain.SubmittedTxs); forged != 0 {
				t.Fatalf("honest nodes committed %d forged transactions", forged)
			}
		})
	}
}

// TestClusteredByzantineFollower checks the clustered one-shot cell: a
// Byzantine cluster member (never the epoch leader) must not break the
// deployment's agreement or completion.
func TestClusteredByzantineFollower(t *testing.T) {
	spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Topology = Clustered(4, 4)
	spec.Workload = OneShot(1)
	spec.Seed = 3
	// Flat node 7 = cluster 1, member 3; epoch 0's leaders are member 0.
	spec.Scenario = scenario.Byz(byz.NameGarbage, 7)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("clustered run with Byzantine follower: %v", err)
	}
	if res.OneShot.DeliveredTxs == 0 {
		t.Fatal("no transactions delivered")
	}
	if res.Rejected == 0 {
		t.Error("garbage follower ran but no rejections surfaced in Stats")
	}
}

// TestByzValidation: unknown behaviors and more than F Byzantine nodes
// must be rejected before any virtual time elapses — across every matrix
// cell.
func TestByzValidation(t *testing.T) {
	spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	spec.Scenario = scenario.Byz("omniscient", 3)
	if _, err := Run(spec); err == nil {
		t.Error("unknown behavior accepted")
	}
	spec.Scenario = scenario.Byz(byz.NameWithhold, 2, 3)
	if _, err := Run(spec); err == nil {
		t.Error("2 Byzantine nodes accepted with F=1")
	}
	spec.Scenario = scenario.Byz(byz.NameWithhold, 9)
	if _, err := Run(spec); err == nil {
		t.Error("byz event on nonexistent node 9 accepted (vacuous adversarial run)")
	}
	cspec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	cspec.Workload = Chain(4)
	cspec.Scenario = scenario.Byz("omniscient", 3)
	if _, err := Run(cspec); err == nil {
		t.Error("chain workload accepted an unknown behavior")
	}
	mspec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	mspec.Topology = Clustered(4, 4)
	mspec.Scenario = scenario.Byz(byz.NameGarbage, 4, 5) // both in cluster 1, F=1
	if _, err := Run(mspec); err == nil {
		t.Error("clustered run accepted 2 Byzantine nodes in one F=1 cluster")
	}
	mcspec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
	mcspec.Topology = Clustered(4, 4)
	mcspec.Workload = Chain(3)
	mcspec.Scenario = scenario.Byz(byz.NameGarbage, 0, 1)
	if _, err := Run(mcspec); err == nil {
		t.Error("clustered chain accepted 2 Byzantine nodes in one F=1 cluster")
	}
	// One byz node in each of two clusters is within the per-cluster bound
	// but taints two uplink seats on a global tier that tolerates f_g=1.
	mcspec.Scenario = scenario.Byz(byz.NameGarbage, 0, 4)
	if _, err := Run(mcspec); err == nil {
		t.Error("clustered chain accepted byz taint on 2 of 4 uplink seats (f_g=1)")
	}
	// A cluster whose only honest members are scripted to stay dead can
	// never relay its cuts; the driver must reject rather than deadline.
	mcspec.Scenario = scenario.Crash(0, 1, 2, 3)
	if _, err := Run(mcspec); err == nil {
		t.Error("clustered chain accepted a fully perma-crashed cluster")
	}
	// Cut certificates need f+1 cluster signers: a cluster left with only
	// one honest live member can still relay but never certify, so the
	// driver must reject rather than deadline.
	mcspec.Scenario = scenario.Crash(1, 2, 3)
	if _, err := Run(mcspec); err == nil {
		t.Error("clustered chain accepted a cluster with fewer than f+1 honest live signers")
	}
}
