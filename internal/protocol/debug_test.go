package protocol

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// TestDebugHoneyBadgerTrace is a diagnostic harness: it runs HB-SC with
// direct access to component internals and dumps progress when stuck.
func TestDebugHoneyBadgerTrace(t *testing.T) {
	const (
		n, f       = 4, 1
		seed int64 = 1
	)
	net := wireless.DefaultConfig()
	net.LossProb = 0
	sched := sim.New(seed)
	ch := wireless.NewChannel(sched, net)
	suites, err := crypto.Deal(n, f, crypto.LightConfig(), rand.New(rand.NewSource(seed^0x5eed)))
	if err != nil {
		t.Fatal(err)
	}
	ncfg := node.Config{Batched: true, Seed: seed}
	nodes := make([]*node.Node, n)
	done := make([]bool, n)
	insts := make([]*ACS, n)
	for i := 0; i < n; i++ {
		nodes[i] = node.New(sched, ch, wireless.NodeID(i), suites[i], ncfg)
	}
	for i, nd := range nodes {
		nd.Transport().SetEpoch(0)
		env := &component.Env{
			N: n, F: f, Me: i, Epoch: 0,
			Suite: nd.Suite, T: nd.Transport(), CPU: nd.CPU, Sched: sched, Rand: nd.Rand,
		}
		i := i
		insts[i] = NewACS(env, ACSOptions{Coin: CoinSig, Batched: true, Encrypt: true,
			OnDecide: func() { done[i] = true }})
		prop := make([]byte, 64)
		binary.BigEndian.PutUint32(prop, uint32(i))
		insts[i].Start(prop)
	}
	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}
	deadline := 30 * time.Minute
	for sched.Now() < deadline && !allDone() {
		if !sched.Step() {
			break
		}
	}
	if allDone() {
		t.Logf("completed at %v", sched.Now())
		return
	}
	for i, a := range insts {
		decs, plains := "", 0
		for s, sl := range a.slots {
			if sl.decided {
				decs += fmt.Sprintf("%d:%v ", s, sl.accepted)
			} else {
				decs += fmt.Sprintf("%d:? ", s)
			}
			if sl.opened {
				plains++
			}
		}
		t.Logf("node %d: rbcDelivered=%d abaStarted=%v decisions=[%s] plains=%d outputs=%v done=%v",
			i, a.rbc.DeliveredCount(), a.abaStarted, decs, plains, a.outputs != nil, done[i])
	}
	t.Fatalf("stuck at %v", sched.Now())
}
