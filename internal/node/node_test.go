package node

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
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
	suites, err := crypto.Deal(n, Faults(n), crypto.LightConfig(), rand.New(rand.NewSource(1)))
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

// wire attaches n batched nodes to one lossless channel. Nothing is
// retransmitted: the tests count what each send delivers.
func wire(t *testing.T, seed int64, n int) (*sim.Scheduler, *wireless.Channel, []*Node) {
	t.Helper()
	tcfg := core.DefaultConfig(true)
	tcfg.RetxInterval = 0
	return wireWith(t, seed, n, tcfg)
}

// wireWith is wire with the transport configuration tcfg.
func wireWith(t *testing.T, seed int64, n int, tcfg core.Config) (*sim.Scheduler, *wireless.Channel, []*Node) {
	t.Helper()
	sched := sim.New(seed)
	ch := wireless.NewChannel(sched, losslessNet())
	suites := deal(t, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(sched, ch, wireless.NodeID(i), suites[i], Config{Transport: tcfg, Seed: seed})
	}
	return sched, ch, nodes
}

// TestCrashRecoverTransportLifecycle: a crashed node is deaf and silent;
// a recovered one sends and receives again on the epoch it re-opens, and
// Stats keeps counting across the crash.
func TestCrashRecoverTransportLifecycle(t *testing.T) {
	sched, _, nodes := wire(t, 1, 4)
	recv := make([]int, 4)
	listen := func(i int) {
		nodes[i].Mux().Open(0).Register(packet.KindRBC, core.HandlerFunc(func(uint16, packet.Section) { recv[i]++ }))
	}
	for i := range nodes {
		listen(i)
	}
	send := func(n *Node) {
		n.Mux().Open(0).Update(core.Intent{
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
	preStats := nodes[3].Mux().Stats()

	nodes[3].Recover()
	// Re-open the epoch and re-register (the protocol layer's job).
	listen(3)
	send(nodes[0])
	send(nodes[3])
	sched.RunFor(time.Minute)
	if recv[3] == before {
		t.Error("recovered node not receiving")
	}
	if recv[0] == 0 {
		t.Error("recovered node not sending")
	}
	post := nodes[3].Mux().Stats()
	if post.LogicalSent < preStats.LogicalSent || post.VerifyOps <= preStats.VerifyOps {
		t.Errorf("stats lost across crash: pre %+v post %+v", preStats, post)
	}
	// Double crash / double recover are no-ops.
	nodes[3].Recover()
	nodes[3].Crash()
	nodes[3].Crash()
	nodes[3].Recover()
}

// TestMuxNodeCrashKeepsMux: a crash pauses the node on the mux it keeps.
// Its epochs stay open with what they hold, and nothing goes on the air
// while it is down — not an intent updated meanwhile (work its CPU had
// charged before the crash), not a re-send, however many re-send periods
// the outage lasts. Back up, it sends what it held.
func TestMuxNodeCrashKeepsMux(t *testing.T) {
	sched, _, nodes := wireWith(t, 2, 4, core.DefaultConfig(true))
	a, b := nodes[0], nodes[1]
	var heard [][]byte
	b.Mux().Open(0).Register(packet.KindRBC, core.HandlerFunc(func(_ uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			heard = append(heard, bytes.Clone(e.Data))
		}
	}))
	tr := a.Mux().Open(0)
	tr.Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte("y")})
	sched.RunFor(time.Minute)
	if len(heard) == 0 {
		t.Fatal("node never sent")
	}
	sent, mux := a.Mux().Stats().LogicalSent, a.Mux()
	a.Crash()
	if a.Mux().Lookup(0) != tr {
		t.Fatal("crash closed epoch 0")
	}
	tr.Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 1}, Data: []byte("z")})
	before := len(heard)
	sched.RunFor(time.Hour)
	if a.Mux().Stats().LogicalSent != sent || len(heard) != before {
		t.Fatalf("the crashed node sent %d packets, %d entries heard", a.Mux().Stats().LogicalSent-sent, len(heard)-before)
	}
	a.Recover()
	if a.Mux() != mux {
		t.Fatal("mux replaced across recovery")
	}
	sched.RunFor(time.Minute)
	if !slices.ContainsFunc(heard[before:], func(d []byte) bool { return string(d) == "z" }) {
		t.Error("the recovered node did not send what it updated while down")
	}
}

// TestCrashMidPacketKeepsSequenceSpace: a node that crashes with one
// fragment of a multi-fragment packet on the air leaves every peer holding
// that partial packet under its sequence number. The recovered node must
// carry its sequence space on: restarting at 0 would have the peers drop
// each of its later multi-fragment packets as older than the partial one.
func TestCrashMidPacketKeepsSequenceSpace(t *testing.T) {
	sched, ch, nodes := wire(t, 3, 4)
	sender, peer := nodes[0], nodes[1]
	delivered := 0
	peer.Mux().Open(0).Register(packet.KindRBC, core.HandlerFunc(func(uint16, packet.Section) { delivered++ }))
	big := core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial},
		Data:      make([]byte, 600), // three radio frames
	}
	// Warm the sequence number up.
	for i := 0; i < 3; i++ {
		sender.Mux().Open(0).Update(big)
		sched.RunFor(time.Minute)
	}
	if delivered != 3 {
		t.Fatalf("warm-up delivered %d of 3 packets", delivered)
	}
	// Crash once the first fragment of the next packet is on the air.
	frames := ch.Stats().Frames
	sender.Mux().Open(0).Update(big)
	for ch.Stats().Frames == frames {
		if !sched.Step() {
			t.Fatal("the fourth packet never reached the air")
		}
	}
	sender.Crash()
	sched.RunFor(time.Minute)
	if delivered != 3 {
		t.Fatal("the packet the crash cut short was delivered")
	}
	sender.Recover()
	for i := 0; i < 3; i++ {
		sender.Mux().Open(0).Update(big)
		sched.RunFor(time.Minute)
	}
	if delivered != 6 {
		t.Fatalf("peer delivered %d of the recovered node's 3 multi-fragment packets", delivered-3)
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
}

// TestSumStatsOneLedger: SumStats adds every node's counters and
// entry-byte ledger, node by node, into one ledger — the only allocation
// it makes — and reads the same as the per-node snapshots summed.
func TestSumStatsOneLedger(t *testing.T) {
	sched, _, nodes := wire(t, 4, 4)
	for i, n := range nodes {
		n.Mux().Open(0).Update(core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte{byte(i)}})
	}
	sched.RunFor(time.Minute)
	var want core.Stats
	var ledger core.EntryBytes
	for _, n := range nodes {
		st := n.Mux().Stats()
		want.LogicalSent += st.LogicalSent
		want.LogicalRecv += st.LogicalRecv
		want.SignOps += st.SignOps
		want.VerifyOps += st.VerifyOps
		for k := range ledger {
			for p := range ledger[k] {
				for c := range ledger[k][p] {
					ledger[k][p][c] += st.Entries[k][p][c]
				}
			}
		}
	}
	got := SumStats(append(nodes, nil))
	if got.LogicalSent == 0 || got.LogicalSent != want.LogicalSent || got.LogicalRecv != want.LogicalRecv ||
		got.SignOps != want.SignOps || got.VerifyOps != want.VerifyOps || *got.Entries != ledger {
		t.Fatalf("SumStats = %+v, the nodes' snapshots sum to %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { SumStats(nodes) }); allocs != 1 {
		t.Errorf("SumStats made %v allocations, want 1 (the ledger)", allocs)
	}
}
