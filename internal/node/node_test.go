package node

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

func deal(t *testing.T, n int) []*crypto.Suite {
	t.Helper()
	suites, err := crypto.Deal(n, (n-1)/3, crypto.LightConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return suites
}

func losslessNet() wireless.Config {
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	return cfg
}

// TestCrashRecoverTransportLifecycle: a crashed node is deaf and silent;
// a recovered one sends and receives again through a fresh transport, and
// Stats keeps counting across the crash.
func TestCrashRecoverTransportLifecycle(t *testing.T) {
	sched := sim.New(1)
	ch := wireless.NewChannel(sched, losslessNet())
	suites := deal(t, 4)
	cfg := Config{Batched: true, Seed: 1}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = New(sched, ch, wireless.NodeID(i), suites[i], cfg)
	}
	recv := make([]int, 4)
	for i, n := range nodes {
		i := i
		n.Transport().Register(packet.KindRBC, core.HandlerFunc(func(uint16, packet.Section) { recv[i]++ }))
	}
	send := func(n *Node) {
		n.Transport().Update(core.Intent{
			IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0},
			Data:      []byte("x"),
		})
	}
	send(nodes[0])
	sched.RunFor(time.Minute)
	if recv[1] == 0 || recv[3] == 0 {
		t.Fatal("baseline delivery failed")
	}

	nodes[3].Crash()
	if !nodes[3].Down() {
		t.Fatal("Down() false after Crash")
	}
	before := recv[3]
	send(nodes[0])
	sched.RunFor(time.Minute)
	if recv[3] != before {
		t.Error("crashed node still receiving")
	}
	preStats := nodes[3].Stats()

	nodes[3].Recover()
	// Re-register on the fresh transport (the protocol layer's job).
	nodes[3].Transport().Register(packet.KindRBC, core.HandlerFunc(func(uint16, packet.Section) { recv[3]++ }))
	send(nodes[0])
	send(nodes[3])
	sched.RunFor(time.Minute)
	if recv[3] == before {
		t.Error("recovered node not receiving")
	}
	if recv[0] == 0 {
		t.Error("recovered node not sending")
	}
	post := nodes[3].Stats()
	if post.LogicalSent < preStats.LogicalSent || post.VerifyOps <= preStats.VerifyOps {
		t.Errorf("stats lost across crash: pre %+v post %+v", preStats, post)
	}
	// Double crash / double recover are no-ops.
	nodes[3].Recover()
	nodes[3].Crash()
	nodes[3].Crash()
	nodes[3].Recover()
}

// TestMuxNodeCrashKeepsMux: mux nodes keep one mux across crashes; closed
// epochs fold into the cumulative counters.
func TestMuxNodeCrashKeepsMux(t *testing.T) {
	sched := sim.New(2)
	ch := wireless.NewChannel(sched, losslessNet())
	suites := deal(t, 4)
	cfg := Config{Batched: true, Seed: 2}
	a := NewMux(sched, ch, 0, suites[0], cfg)
	b := NewMux(sched, ch, 1, suites[1], cfg)
	for i := 2; i < 4; i++ {
		NewMux(sched, ch, wireless.NodeID(i), suites[i], cfg)
	}
	tr := a.Mux().Open(0)
	tr.Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte("y")})
	b.Mux().Open(0)
	sched.RunFor(time.Minute)
	if a.Stats().LogicalSent == 0 {
		t.Fatal("mux node never sent")
	}
	sent := a.Stats().LogicalSent
	a.Crash()
	if got := len(a.Mux().OpenEpochs()); got != 0 {
		t.Fatalf("crash left %d epochs open", got)
	}
	a.Recover()
	if a.Mux() == nil {
		t.Fatal("mux lost across recovery")
	}
	tr2 := a.Mux().Open(1)
	tr2.Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte("z")})
	sched.RunFor(time.Minute)
	if a.Stats().LogicalSent <= sent {
		t.Error("recovered mux node not sending")
	}
}

func TestDriveErrors(t *testing.T) {
	sched := sim.New(3)
	if err := Drive(sched, time.Hour, func() bool { return true }); err != nil {
		t.Fatalf("done-at-entry drive failed: %v", err)
	}
	err := Drive(sched, time.Hour, func() bool { return false })
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("empty queue: got %v, want deadlock", err)
	}
	sched2 := sim.New(3)
	var tick func()
	tick = func() { sched2.After(time.Minute, tick) }
	tick()
	err = Drive(sched2, time.Hour, func() bool { return false })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("busy loop: got %v, want deadline", err)
	}
	// A queue of nothing but blocked waits — every transport stuck behind
	// a radio queue that never drains — is the same failure: the waits sit
	// their periods out inside Step, which must still come back to the
	// deadline test.
	sched3 := sim.New(3)
	for i := 0; i < 4; i++ {
		sched3.WaitFixed(120*time.Millisecond, stuck{})
	}
	err = Drive(sched3, time.Hour, func() bool { return false })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("blocked waits only: got %v, want deadline", err)
	}
	if over := sched3.Now() - time.Hour; over <= 0 || over > 120*time.Millisecond {
		t.Fatalf("blocked waits only: drive ended at %v, want within one period past the hour", sched3.Now())
	}
}

// stuck is a wait that stays blocked.
type stuck struct{}

func (stuck) Blocked() bool { return true }
func (stuck) Wake()         {}
