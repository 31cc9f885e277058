package protocol

import (
	"testing"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/packet"
)

// decisionTap records every binary-agreement decision a node publishes,
// by epoch and slot: the value of each DECIDED claim it updates.
type decisionTap struct {
	epoch     map[*core.Transport]int
	decisions map[[2]int][]byte
}

func (d *decisionTap) Outbound(t *core.Transport, in core.Intent) []core.Intent {
	if in.Kind == packet.KindABA && in.Phase == packet.PhaseDecided {
		k := [2]int{d.epoch[t], int(in.Slot)}
		d.decisions[k] = append(d.decisions[k], in.Data[0])
	}
	return []core.Intent{in}
}

// TestCrashKeepsDecisions: node 3 crashes the instant it decides its first
// binary agreement, and stays down while the others commit two epochs past
// that one. Back up, it decides no agreement a second time — so it never
// decides one otherwise — and it commits the log the others did.
func TestCrashKeepsDecisions(t *testing.T) {
	g := newGCNet(t, 6)
	tap := &decisionTap{epoch: make(map[*core.Transport]int), decisions: make(map[[2]int][]byte)}
	g.chains[3].OnEpochOpen = func(e int, env *component.Env) { tap.epoch[env.T] = e }
	g.nodes[3].Mux().SetInterceptor(tap)
	g.until(t, "node 3 decides an agreement", func() bool { return len(tap.decisions) > 0 })
	var first [2]int
	for k := range tap.decisions {
		first = k
	}
	g.nodes[3].Crash()
	if g.chains[3].CommittedEpochs() > first[0] {
		t.Fatalf("node 3 committed epoch %d before it crashed", first[0])
	}
	g.until(t, "the others commit past it", func() bool { return g.chains[0].CommittedEpochs() > first[0]+2 })
	g.nodes[3].Recover()
	frontier := g.chains[0].CommittedEpochs()
	g.until(t, "node 3 catches up", func() bool { return g.chains[3].CommittedEpochs() > frontier })
	for k, vs := range tap.decisions {
		if len(vs) != 1 {
			t.Errorf("node 3 decided epoch %d slot %d %d times: %v", k[0], k[1], len(vs), vs)
		}
	}
	if err := CheckLogs(g.chains); err != nil {
		t.Fatal(err)
	}
}
