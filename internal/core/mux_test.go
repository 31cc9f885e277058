package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

type muxRig struct {
	sched *sim.Scheduler
	ch    *wireless.Channel
	muxes []*Mux
}

func newMuxRig(t *testing.T, n int, batched bool) *muxRig {
	t.Helper()
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	return newMuxRigOn(t, n, batched, cfg)
}

// newMuxRigOn is newMuxRig on a channel configured by cfg.
func newMuxRigOn(t *testing.T, n int, batched bool, cfg wireless.Config) *muxRig {
	t.Helper()
	s := sim.New(5)
	ch := wireless.NewChannel(s, cfg)
	r := &muxRig{sched: s, ch: ch}
	for i := 0; i < n; i++ {
		cpu := sim.NewCPU(s)
		auth := &SizedAuth{Len: 56, CostSign: 5 * time.Millisecond, CostVerify: 10 * time.Millisecond}
		tcfg := DefaultConfig(batched)
		tcfg.RetxInterval = 0
		m := NewMux(s, cpu, auth, tcfg)
		st := ch.Attach(wireless.NodeID(i), m)
		m.BindStation(st)
		r.muxes = append(r.muxes, m)
	}
	return r
}

func intentFor(slot uint8) Intent {
	return Intent{
		IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: slot},
		Data:      []byte{slot},
	}
}

// collect registers a counter handler on an epoch transport.
func collect(tr *Transport, got *int) {
	tr.Register(packet.KindRBC, HandlerFunc(func(from uint16, sec packet.Section) {
		*got += len(sec.Entries)
	}))
}

func TestMuxRoutesByEpoch(t *testing.T) {
	r := newMuxRig(t, 2, true)
	send0 := r.muxes[0].Open(3)
	send1 := r.muxes[0].Open(4)
	var got3, got4 int
	collect(r.muxes[1].Open(3), &got3)
	collect(r.muxes[1].Open(4), &got4)

	send0.Update(intentFor(1))
	send1.Update(intentFor(2))
	r.sched.Run()

	if got3 != 1 || got4 != 1 {
		t.Fatalf("epoch3=%d epoch4=%d entries, want 1 and 1", got3, got4)
	}
	if d := r.muxes[1].DroppedUnknownEpoch(); d != 0 {
		t.Fatalf("dropped %d frames, want 0", d)
	}
}

func TestMuxDropsAndSignalsUnknownEpoch(t *testing.T) {
	r := newMuxRig(t, 2, true)
	sender := r.muxes[0].Open(7)

	var signalled []uint16
	r.muxes[1].OnUnknownEpoch = func(e uint16) { signalled = append(signalled, e) }

	sender.Update(intentFor(0))
	r.sched.Run()

	if d := r.muxes[1].DroppedUnknownEpoch(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if len(signalled) != 1 || signalled[0] != 7 {
		t.Fatalf("OnUnknownEpoch got %v, want [7]", signalled)
	}

	// Once the receiver opens the epoch, a retransmitted snapshot lands.
	var got int
	collect(r.muxes[1].Open(7), &got)
	sender.Update(intentFor(0)) // snapshot resend
	r.sched.Run()
	if got != 1 {
		t.Fatalf("after open: got %d entries, want 1", got)
	}
}

func TestMuxSharedSeqSpaceAcrossEpochs(t *testing.T) {
	r := newMuxRig(t, 2, true)
	a := r.muxes[0].Open(1)
	b := r.muxes[0].Open(2)
	var got1, got2 int
	collect(r.muxes[1].Open(1), &got1)
	collect(r.muxes[1].Open(2), &got2)

	// Payloads larger than one MTU force fragmentation; interleaved
	// multi-fragment packets from two epochs of the same sender must not
	// corrupt each other's reassembly because they share one seq space.
	big := make([]byte, 600)
	for i := 0; i < 4; i++ {
		in := intentFor(uint8(i))
		in.Data = big
		a.Update(in)
		r.sched.RunFor(30 * time.Second)
		in2 := intentFor(uint8(i))
		in2.Data = big
		b.Update(in2)
		r.sched.RunFor(30 * time.Second)
	}
	r.sched.Run()
	if got1 == 0 || got2 == 0 {
		t.Fatalf("epoch1=%d epoch2=%d entries, want both > 0", got1, got2)
	}
}

func TestMuxCloseGarbageCollects(t *testing.T) {
	r := newMuxRig(t, 2, true)
	sender := r.muxes[0].Open(1)
	var got int
	recvTr := r.muxes[1].Open(1)
	collect(recvTr, &got)

	sender.Update(intentFor(0))
	r.sched.Run()
	if got != 1 {
		t.Fatalf("pre-close: got %d entries, want 1", got)
	}
	sent := r.muxes[0].Stats().LogicalSent

	r.muxes[1].Close(1)
	if epochs := r.muxes[1].OpenEpochs(); len(epochs) != 0 {
		t.Fatalf("open epochs after close: %v", epochs)
	}
	sender.Update(intentFor(1))
	r.sched.Run()
	if got != 1 {
		t.Fatalf("post-close: got %d entries, want still 1", got)
	}
	if d := r.muxes[1].DroppedUnknownEpoch(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	// Closed transports' counters fold into the mux aggregate.
	if s := r.muxes[1].Stats(); s.LogicalRecv == 0 {
		t.Fatalf("mux stats lost closed transport counters: %+v", s)
	}
	if s := r.muxes[0].Stats(); s.LogicalSent <= sent-1 {
		t.Fatalf("sender stats = %+v, want >= %d logical sent", s, sent)
	}
}

// TestCrashMidBurstNextPacketDelivered: a node crashes while the second of
// its packet's three fragments is on the air. That fragment still arrives,
// the third never goes out, and the receiver is left holding two thirds of
// a packet. Back up, the node's next packet continues the fragment sequence
// — it supersedes the partial one rather than completing it — and is
// delivered whole.
func TestCrashMidBurstNextPacketDelivered(t *testing.T) {
	r := newMuxRig(t, 2, true)
	tx, rx := r.muxes[0], r.muxes[1]
	var got [][]byte
	rx.Open(1).Register(packet.KindRBC, HandlerFunc(func(_ uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			got = append(got, e.Data)
		}
	}))
	value := func(b byte) Intent {
		in := intentFor(0)
		in.Data = bytes.Repeat([]byte{b}, 500) // three fragments
		return in
	}
	tx.Open(1).Update(value(1))
	for rx.reasm.bufs == nil || rx.reasm.bufs[0].have == 0 {
		if !r.sched.Step() {
			t.Fatal("the first fragment never arrived")
		}
	}
	r.sched.RunFor(r.ch.Config().SlotTime + time.Millisecond) // into the second
	tx.Stop()
	tx.station.Reset()
	r.sched.Run()
	if p := rx.reasm.bufs[0]; p.have != 2 || p.total != 3 || len(got) != 0 {
		t.Fatalf("after the crash the receiver holds %d of %d fragments and %d values, want 2 of 3 and none", p.have, p.total, len(got))
	}
	tx.Open(1).Update(value(2))
	r.sched.Run()
	if len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("the receiver got %d values after the recovery, want the new one alone", len(got))
	}
	if n := rx.Stats().AuthFailures; n != 0 {
		t.Errorf("%d authentication failures: fragments of two packets were mixed", n)
	}
}

// TestRegressedPeer: a peer whose NACK rows only gain bits is never marked
// regressed; one whose row loses a bit it had shown is — and so is one that
// comes back from a crash with an all-zero row. Marks belong to the epoch:
// another epoch's transport, or the same epoch opened afresh, starts clear.
func TestRegressedPeer(t *testing.T) {
	r := newMuxRig(t, 4, true)
	rx := r.muxes[0].Open(1)
	other := r.muxes[0].Open(2)
	row := func(bits ...int) packet.BitSet {
		b := packet.NewBitSet(4)
		for _, i := range bits {
			b.Set(i)
		}
		return b
	}
	// show has node i's epoch-e transport send its (kind, phase) row.
	show := func(i int, e uint16, phase packet.Phase, bits ...int) {
		r.muxes[i].Open(e).SetNack(packet.KindRBC, phase, row(bits...))
		r.sched.Run()
	}
	marked := func(tr *Transport) (out []int) {
		for w := 1; w < 4; w++ {
			if tr.Regressed(w) {
				out = append(out, w)
			}
		}
		return out
	}

	show(1, 1, packet.PhaseEcho, 0)
	show(1, 1, packet.PhaseEcho, 0, 1)
	show(1, 1, packet.PhaseReady, 1)
	show(1, 1, packet.PhaseEcho, 0, 1, 2, 3)
	show(2, 1, packet.PhaseEcho, 0, 1)
	show(3, 1, packet.PhaseReady, 2)
	if got := marked(rx); got != nil {
		t.Fatalf("peers %v marked while their rows only gained bits", got)
	}

	show(2, 1, packet.PhaseEcho, 0, 2) // bit 1 lost, bit 2 gained
	if got := marked(rx); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after node 2's row lost a bit: marked %v, want [2]", got)
	}

	// Node 3 crashes and comes back: its fresh epoch transport's rows are
	// all zero, and its first frame carries them.
	r.muxes[3].Close(1)
	reborn := r.muxes[3].Open(1)
	reborn.SetNack(packet.KindRBC, packet.PhaseReady, row())
	reborn.Update(intentFor(0))
	r.sched.Run()
	if got := marked(rx); len(got) != 2 || got[1] != 3 {
		t.Fatalf("after node 3 came back with an all-zero row: marked %v, want [2 3]", got)
	}

	show(2, 2, packet.PhaseEcho, 0, 1)
	show(2, 2, packet.PhaseEcho, 0, 1, 2)
	if got := marked(other); got != nil {
		t.Errorf("epoch 2 marked %v for what happened in epoch 1", got)
	}
	r.muxes[0].Close(1)
	if got := marked(r.muxes[0].Open(1)); got != nil {
		t.Errorf("epoch 1 opened afresh marked %v", got)
	}
}

// arrival is one entry a receiving epoch's handler was handed.
type arrival struct {
	epoch uint16
	data  byte
}

// logArrivals has rx's epochs log every RBC entry they are handed, in
// order of arrival.
func logArrivals(rx *Mux, log *[]arrival, epochs ...uint16) {
	for _, e := range epochs {
		rx.Open(e).Register(packet.KindRBC, HandlerFunc(func(_ uint16, sec packet.Section) {
			for _, en := range sec.Entries {
				*log = append(*log, arrival{e, en.Data[0]})
			}
		}))
	}
}

// TestOneWinServesEveryEpoch: a batched node with something to send in two
// epochs contends once. At its win both epochs build a packet of their own,
// and the packets go out in one burst, lower epoch first — whatever order
// the updates came in.
func TestOneWinServesEveryEpoch(t *testing.T) {
	r := newMuxRig(t, 2, true)
	var got []arrival
	logArrivals(r.muxes[1], &got, 1, 2)
	e1, e2 := r.muxes[0].Open(1), r.muxes[0].Open(2)
	e2.Update(intentFor(2))
	e1.Update(intentFor(1))
	r.sched.Run()
	if n := r.ch.Stats().Accesses; n != 1 {
		t.Errorf("%d channel accesses, want 1", n)
	}
	if len(got) != 2 || got[0] != (arrival{1, 1}) || got[1] != (arrival{2, 2}) {
		t.Errorf("received %v, want epoch 1's entry, then epoch 2's", got)
	}
	for e, tr := range []*Transport{e1, e2} {
		if n := tr.Stats().LogicalSent; n != 1 {
			t.Errorf("epoch %d sent %d packets, want 1", e+1, n)
		}
	}
}

// TestBaselineServesOneEpochPerWin: a baseline node serves one epoch per
// win. With two epochs dirty it takes two accesses, and the second epoch's
// frame is built at the second win: it carries the update made after the
// first frame went out, and is the only frame that epoch sends.
func TestBaselineServesOneEpochPerWin(t *testing.T) {
	r := newMuxRig(t, 2, false)
	var got []arrival
	logArrivals(r.muxes[1], &got, 1, 2)
	e1, e2 := r.muxes[0].Open(1), r.muxes[0].Open(2)
	e1.Update(intentFor(1))
	e2.Update(intentFor(2))
	updated := false
	r.ch.SetDeliveryHook(func(wireless.NodeID, wireless.NodeID, []byte) (time.Duration, bool) {
		if !updated {
			updated = true
			in := intentFor(2)
			in.Data = []byte{9}
			e2.Update(in)
		}
		return 0, false
	})
	r.sched.Run()
	if n := r.ch.Stats().Accesses; n != 2 {
		t.Errorf("%d channel accesses, want 2", n)
	}
	if len(got) != 2 || got[0] != (arrival{1, 1}) || got[1] != (arrival{2, 9}) {
		t.Errorf("received %v, want epoch 1's entry, then epoch 2's as updated after the first win", got)
	}
	for e, tr := range []*Transport{e1, e2} {
		if n := tr.Stats().LogicalSent; n != 1 {
			t.Errorf("epoch %d sent %d packets, want 1", e+1, n)
		}
	}
}

// TestCollidedBurstCarriesEveryEpoch: a batched node's two-epoch burst
// whose first frame collides — a one-slot contention window makes the
// first round a tie — stays queued as built, re-contends, and goes out
// whole after the node's next win: one access, both packets back to back.
func TestCollidedBurstCarriesEveryEpoch(t *testing.T) {
	cfg := wireless.DefaultConfig()
	cfg.LossProb, cfg.CWMin = 0, 1
	r := newMuxRigOn(t, 3, true, cfg)
	var got []arrival
	logArrivals(r.muxes[2], &got, 1, 2)
	a1, a2 := r.muxes[0].Open(1), r.muxes[0].Open(2)
	a1.Update(intentFor(1))
	a2.Update(intentFor(2))
	r.muxes[1].Open(1).Update(intentFor(7))
	r.sched.Run()
	st := r.ch.Stats()
	if st.Collisions == 0 {
		t.Fatal("no collision: the test does not reach a collided burst")
	}
	if st.Accesses != 2 {
		t.Errorf("%d channel accesses, want node 0's burst and node 1's packet", st.Accesses)
	}
	for e, tr := range []*Transport{a1, a2} {
		if n := tr.Stats().LogicalSent; n != 1 {
			t.Errorf("node 0's epoch %d built %d packets, want 1", e+1, n)
		}
	}
	first := slices.Index(got, arrival{1, 1})
	if len(got) != 3 || first < 0 || first+1 >= len(got) || got[first+1] != (arrival{2, 2}) {
		t.Errorf("received %v, want node 0's two epochs back to back and node 1's entry", got)
	}
}
