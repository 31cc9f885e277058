package run

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// countingLife is a deployment of n nodes that only counts what the
// scenario engine asks of it.
type countingLife struct {
	n                int
	crashes, rejoins int
}

func (c *countingLife) NodeCount() int           { return c.n }
func (c *countingLife) CrashNode(int)            { c.crashes++ }
func (c *countingLife) RecoverNode(int)          { c.rejoins++ }
func (c *countingLife) SetByzantine(int, string) {}

// churnInjected replays plan on a bare scheduler for the duration of a run
// and returns how many crashes and rejoins the engine issued. The engine's
// draws depend on the seed and the node count alone, so this is what the
// run's own lifecycle was asked to do.
func churnInjected(plan scenario.Plan, seed int64, nodes int, d time.Duration) (crashes, rejoins int) {
	sched := sim.New(seed)
	life := &countingLife{n: nodes}
	scenario.Start(sched, plan, seed, life)
	sched.RunUntil(d)
	return life.crashes, life.rejoins
}

// TestChurnReachesEveryDriver pins the cells where a churn plan used to be
// silently inert because the driver's lifecycle could not size the
// deployment: nodes must really crash and rejoin, and the run must stay
// safe (Run fails on any agreement or log violation).
func TestChurnReachesEveryDriver(t *testing.T) {
	oneshot := quickSpec(protocol.HoneyBadger, protocol.CoinSig, true, 5)
	oneshot.Workload.Epochs = 6
	cases := []struct {
		name string
		spec Spec
		plan string
	}{
		{"SingleHop x OneShot", oneshot, "churn@0s:20s,10s"},
		{"Clustered x Chain", quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 4, 3), "churn@0s:1m,30s"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			calm, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			tc.spec.Scenario = scenario.MustParse(tc.plan)
			churned, err := Run(tc.spec)
			if err != nil {
				t.Fatalf("run under churn: %v", err)
			}
			crashes, rejoins := churnInjected(tc.spec.Scenario, tc.spec.Seed, tc.spec.Nodes(), churned.Duration)
			if crashes == 0 || rejoins == 0 {
				t.Fatalf("plan %q injects %d crashes and %d rejoins in %v; pick a denser plan",
					tc.plan, crashes, rejoins, churned.Duration)
			}
			if reflect.DeepEqual(calm, churned) {
				t.Fatalf("%d crashes and %d rejoins left the run untouched: churn is inert", crashes, rejoins)
			}
			t.Logf("%d crashes, %d rejoins over %v", crashes, rejoins, churned.Duration)
		})
	}
}
