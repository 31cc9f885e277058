package core

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

type rig struct {
	sched      *sim.Scheduler
	ch         *wireless.Channel
	transports []*Transport
	received   []map[packet.Kind][]recv
}

type recv struct {
	from uint16
	sec  packet.Section
}

func newRig(t *testing.T, n int, batched bool, mutate func(*wireless.Config)) *rig {
	t.Helper()
	s := sim.New(3)
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	if mutate != nil {
		mutate(&cfg)
	}
	ch := wireless.NewChannel(s, cfg)
	r := &rig{sched: s, ch: ch}
	for i := 0; i < n; i++ {
		i := i
		cpu := sim.NewCPU(s)
		auth := &SizedAuth{Len: 56, CostSign: 5 * time.Millisecond, CostVerify: 10 * time.Millisecond}
		tcfg := DefaultConfig(batched)
		tcfg.RetxInterval = 0 // tests control retransmission explicitly
		tr := New(s, cpu, nil, auth, tcfg)
		tr.BindStation(ch.Attach(wireless.NodeID(i), tr))
		r.transports = append(r.transports, tr)
		r.received = append(r.received, map[packet.Kind][]recv{})
		for _, k := range []packet.Kind{packet.KindRBC, packet.KindABA} {
			k := k
			tr.Register(k, HandlerFunc(func(from uint16, sec packet.Section) {
				// A section is the transport's only until the handler
				// returns; keeping one means copying its entries.
				sec.Entries = append([]packet.Entry(nil), sec.Entries...)
				r.received[i][k] = append(r.received[i][k], recv{from, sec})
			}))
		}
	}
	return r
}

func TestBatchedMergesIntents(t *testing.T) {
	r := newRig(t, 3, true, nil)
	tr := r.transports[0]
	// Four same-phase intents (vertical) plus one other-phase (horizontal):
	// all must leave in ONE logical packet and one channel access.
	for slot := 0; slot < 4; slot++ {
		tr.Update(Intent{
			IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: uint8(slot)},
			Data:      []byte{byte(slot)},
		})
	}
	tr.Update(Intent{
		IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseReady, Slot: 1},
		Data:      []byte{9},
	})
	r.sched.Run()
	if got := tr.Stats().LogicalSent; got != 1 {
		t.Fatalf("LogicalSent = %d, want 1 (batched)", got)
	}
	if got := r.ch.Stats().Accesses; got != 1 {
		t.Fatalf("channel accesses = %d, want 1", got)
	}
	secs := r.received[1][packet.KindRBC]
	if len(secs) != 2 {
		t.Fatalf("receiver saw %d RBC sections, want 2 (echo + ready)", len(secs))
	}
	var echo *packet.Section
	for i := range secs {
		if secs[i].sec.Phase == packet.PhaseEcho {
			echo = &secs[i].sec
		}
	}
	if echo == nil || len(echo.Entries) != 4 {
		t.Fatalf("echo section entries = %v, want 4 slots", echo)
	}
}

func TestBaselineSendsPerInstance(t *testing.T) {
	r := newRig(t, 3, false, nil)
	tr := r.transports[0]
	for slot := 0; slot < 4; slot++ {
		tr.Update(Intent{
			IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: uint8(slot)},
			Data:      []byte{byte(slot)},
		})
	}
	r.sched.Run()
	if got := tr.Stats().LogicalSent; got != 4 {
		t.Fatalf("LogicalSent = %d, want 4 (baseline, one per instance)", got)
	}
	if got := r.ch.Stats().Accesses; got != 4 {
		t.Fatalf("channel accesses = %d, want 4", got)
	}
}

func TestUpdateSupersedesSameKey(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	key := IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: 0, Round: 1}
	tr.Update(Intent{IntentKey: key, Data: []byte{0}})
	tr.Update(Intent{IntentKey: key, Data: []byte{1}})
	r.sched.Run()
	got := r.received[1][packet.KindABA]
	if len(got) != 1 {
		t.Fatalf("got %d sections, want 1", len(got))
	}
	if len(got[0].sec.Entries) != 1 {
		t.Fatalf("got %d entries, want 1 (same key coalesces)", len(got[0].sec.Entries))
	}
	e := got[0].sec.Entries[0]
	if e.Data[0] != 1 {
		t.Errorf("entry data = %v; newer update did not supersede", e.Data)
	}
}

func TestAdjacentRoundsCoexist(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: 0, Round: 1}, Data: []byte{0}})
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: 0, Round: 2}, Data: []byte{1}})
	r.sched.Run()
	got := r.received[1][packet.KindABA]
	if len(got) != 1 {
		t.Fatalf("got %d sections, want 1", len(got))
	}
	if len(got[0].sec.Entries) != 2 {
		t.Fatalf("got %d entries, want 2 (rounds coexist)", len(got[0].sec.Entries))
	}
	// RemoveWhere prunes round 1. The next frame carries what changed, the
	// AUX vote, and nothing of the BVALs.
	tr.RemoveWhere(func(k IntentKey) bool { return k.Round < 2 })
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux, Slot: 0, Round: 2}, Data: []byte{1}})
	r.sched.Run()
	got = r.received[1][packet.KindABA][1:]
	if len(got) != 1 || got[0].sec.Phase != packet.PhaseAux || len(got[0].sec.Entries) != 1 {
		t.Fatalf("after the AUX update the frame carried %+v, want the AUX vote alone", got)
	}
	// A re-send of everything live carries round 2's BVAL and AUX, and no
	// entry of the pruned round.
	tr.retransmit()
	r.sched.Run()
	got = r.received[1][packet.KindABA][2:]
	entries := 0
	for _, rec := range got {
		for _, e := range rec.sec.Entries {
			entries++
			if e.Round < 2 {
				t.Errorf("pruned round still transmitted: %+v", e)
			}
		}
	}
	if entries != 2 {
		t.Errorf("re-send carried %d entries, want round 2's BVAL and AUX", entries)
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	big := make([]byte, 700) // > 240-byte MTU after framing: multiple fragments
	for i := range big {
		big[i] = byte(i)
	}
	tr.Update(Intent{
		IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial, Slot: 0},
		Data:      big,
	})
	r.sched.Run()
	if tr.Stats().FragmentsSent < 3 {
		t.Fatalf("FragmentsSent = %d, want >= 3", tr.Stats().FragmentsSent)
	}
	got := r.received[1][packet.KindRBC]
	if len(got) != 1 {
		t.Fatalf("receiver reassembled %d sections, want 1", len(got))
	}
	data := got[0].sec.Entries[0].Data
	if len(data) != len(big) {
		t.Fatalf("data %d bytes, want %d", len(data), len(big))
	}
	for i := range big {
		if data[i] != big[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestLostFragmentRecoveredByRetransmission(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	// Drop the first radio frame only.
	dropped := false
	r.ch.SetDeliveryHook(func(_, _ wireless.NodeID, _ []byte) (time.Duration, bool) {
		if !dropped {
			dropped = true
			return 0, true
		}
		return 0, false
	})
	tr.Update(Intent{
		IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial, Slot: 0},
		Data:      make([]byte, 600),
	})
	r.sched.Run()
	if len(r.received[1][packet.KindRBC]) != 0 {
		t.Fatal("partial packet delivered despite lost fragment")
	}
	// The retransmission timer fires: everything is dirty and flushed again.
	tr.retransmit()
	r.sched.Run()
	if len(r.received[1][packet.KindRBC]) != 1 {
		t.Fatal("snapshot retransmission did not repair the loss")
	}
}

// TestEpochFiltering: frames for an epoch the receiver has closed are
// dropped before any CPU is charged and counted in DroppedEpoch.
func TestEpochFiltering(t *testing.T) {
	r := newRig(t, 2, true, nil)
	rx := r.transports[1].m
	rx.Close(0)
	r.transports[0].Update(Intent{
		IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0},
		Data:      []byte{1},
	})
	r.sched.Run()
	if len(r.received[1][packet.KindRBC]) != 0 {
		t.Fatal("frame for a closed epoch delivered")
	}
	if st := rx.Stats(); st.DroppedEpoch != 1 || st.VerifyOps != 0 || rx.cpu.BusyTotal() != 0 {
		t.Errorf("DroppedEpoch = %d, VerifyOps = %d, CPU busy %v; want 1, 0 and none",
			st.DroppedEpoch, st.VerifyOps, rx.cpu.BusyTotal())
	}
}

func TestRemoveStopsTransmission(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	key := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}
	tr.Update(Intent{IntentKey: key, Data: []byte{1}})
	r.sched.Run()
	before := tr.Stats().LogicalSent
	tr.Remove(key)
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseReady, Slot: 1}, Data: []byte{2}})
	r.sched.Run()
	last := r.received[1][packet.KindRBC]
	final := last[len(last)-1].sec
	if final.Phase == packet.PhaseEcho {
		t.Error("removed intent still transmitted")
	}
	if tr.Stats().LogicalSent != before+1 {
		t.Errorf("LogicalSent = %d, want %d", tr.Stats().LogicalSent, before+1)
	}
}

func TestNackBitsAttached(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	bits := packet.NewBitSet(4)
	bits.Set(2)
	tr.SetNack(packet.KindRBC, packet.PhaseEcho, bits)
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}, Data: []byte{1}})
	r.sched.Run()
	got := r.received[1][packet.KindRBC]
	if len(got) != 1 {
		t.Fatal("no section received")
	}
	if !got[0].sec.Nack.Get(2) || got[0].sec.Nack.Get(1) {
		t.Errorf("nack bits = %x", []byte(got[0].sec.Nack))
	}
}

func TestSignAndVerifyCostsCharged(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}, Data: []byte{1}})
	r.sched.Run()
	if tr.m.cpu.BusyTotal() < 5*time.Millisecond {
		t.Errorf("sender CPU charged %v, want >= sign cost", tr.m.cpu.BusyTotal())
	}
	if r.transports[1].m.cpu.BusyTotal() < 10*time.Millisecond {
		t.Errorf("receiver CPU charged %v, want >= verify cost", r.transports[1].m.cpu.BusyTotal())
	}
	if tr.Stats().SignOps != 1 || r.transports[1].Stats().VerifyOps != 1 {
		t.Error("sign/verify op counters wrong")
	}
}

func TestStopSilencesTransport(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}, Data: []byte{1}})
	tr.Stop()
	r.sched.Run()
	if tr.Stats().LogicalSent != 0 {
		t.Error("stopped transport transmitted")
	}
}

func TestFragmentHelperBounds(t *testing.T) {
	const chunk = 240 - fragHeaderLen
	raw := make([]byte, 1000)
	n := fragmentCount(len(raw), chunk)
	if n != 5 {
		t.Fatalf("got %d fragments, want 5", n)
	}
	total := 0
	for i := 0; i < n; i++ {
		f := appendFragment(nil, raw, 1, 42, i, n, chunk)
		if len(f) > 240 {
			t.Errorf("fragment %d bytes exceeds MTU", len(f))
		}
		total += len(f) - fragHeaderLen
	}
	if total != 1000 {
		t.Errorf("fragments carry %d bytes, want 1000", total)
	}
	// Empty payload still produces one fragment, of the header alone.
	if got := fragmentCount(0, chunk); got != 1 {
		t.Errorf("empty payload: %d fragments", got)
	}
	if f := appendFragment(nil, nil, 1, 0, 0, 1, chunk); len(f) != fragHeaderLen {
		t.Errorf("empty payload: fragment of %d bytes, want the %d-byte header", len(f), fragHeaderLen)
	}
}

// saturate fills the transport's radio queue to the backpressure threshold
// with frames of its own.
func saturate(tr *Transport) {
	for i := 0; i < tr.m.cfg.MaxQueue; i++ {
		tr.m.station.Broadcast(make([]byte, 200))
	}
}

// TestFlushWaitsOutBackpressure: while the radio queue is saturated the
// flush sits out whole aggregation windows, intents that arrive meanwhile
// join the same frame, and the flush goes out at the first window boundary
// that finds room.
func TestFlushWaitsOutBackpressure(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	saturate(tr)
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}, Data: []byte{1}})
	r.sched.RunUntil(tr.m.cfg.FlushDelay)
	if !tr.flushArmed || tr.Stats().LogicalSent != 0 {
		t.Fatalf("after one window with a full queue: armed=%v sent=%d, want the flush still waiting", tr.flushArmed, tr.Stats().LogicalSent)
	}
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 1}, Data: []byte{2}})
	var room time.Duration // when the queue first fell below the threshold
	for tr.flushArmed {
		if room == 0 && tr.m.station.QueueLen() < tr.m.cfg.MaxQueue {
			room = r.sched.Now()
		}
		if !r.sched.Step() {
			t.Fatal("queue drained with the flush still armed")
		}
	}
	d := tr.m.cfg.FlushDelay
	if room == 0 || room%d == 0 {
		t.Fatalf("queue found room at %v: want an instant strictly between window boundaries", room)
	}
	if woke, want := r.sched.Now(), (room/d+1)*d; woke != want {
		t.Fatalf("flush woke at %v, want %v: the first boundary after room was found at %v", woke, want, room)
	}
	r.sched.Run()
	if got := tr.Stats().LogicalSent; got != 1 {
		t.Fatalf("LogicalSent = %d, want 1 frame for both intents", got)
	}
	got := r.received[1][packet.KindRBC]
	if len(got) != 1 || len(got[0].sec.Entries) != 2 {
		t.Fatalf("receiver saw %d sections, want one with both entries", len(got))
	}
}

// TestFlushWaitBlockedIsBackpressureOnly: the wait is blocked by a full
// radio queue alone. A stopped transport, or one whose intents are gone,
// wakes at the next boundary (to no effect) however full the queue is.
func TestFlushWaitBlockedIsBackpressureOnly(t *testing.T) {
	key := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}
	for _, tc := range []struct {
		name    string
		release func(*Transport)
	}{
		{"stopped", func(tr *Transport) { tr.Stop() }},
		{"no intents", func(tr *Transport) { tr.Remove(key) }},
	} {
		r := newRig(t, 2, true, nil)
		tr := r.transports[0]
		w := (*flushWait)(tr)
		tr.Update(Intent{IntentKey: key, Data: []byte{1}})
		if w.Blocked() {
			t.Fatalf("%s: blocked with an empty radio queue", tc.name)
		}
		saturate(tr)
		if !w.Blocked() {
			t.Fatalf("%s: not blocked with a full radio queue and an intent to send", tc.name)
		}
		tc.release(tr)
		if w.Blocked() {
			t.Fatalf("%s: still blocked", tc.name)
		}
		r.sched.RunUntil(tr.m.cfg.FlushDelay)
		if tr.flushArmed {
			t.Fatalf("%s: wait did not wake at the first boundary", tc.name)
		}
		r.sched.Run()
		if tr.Stats().LogicalSent != 0 {
			t.Fatalf("%s: sent %d logical packets", tc.name, tr.Stats().LogicalSent)
		}
	}
}

// TestHandlerMustNotKeepEntries is the retention guard: a received frame's
// sections and entries are the decoder's reused storage, zeroed as soon as
// the handlers return, so a handler that keeps sec.Entries (and not a
// copy) reads zeros — not its own frame, and not the next one's votes. An
// entry's Data is bytes of the immutable transmission and may be kept.
func TestHandlerMustNotKeepEntries(t *testing.T) {
	r := newRig(t, 2, true, nil)
	var kept []packet.Entry
	var data []byte
	r.transports[1].Register(packet.KindABA, HandlerFunc(func(_ uint16, sec packet.Section) {
		kept = sec.Entries // wrong: aliases the decoder's storage
		data = sec.Entries[0].Data
		if e := sec.Entries[0]; e.Slot != 3 || e.Round != 7 || e.Flags != 1 {
			t.Errorf("inside the handler the entry reads %+v", e)
		}
	}))
	r.transports[0].Update(Intent{
		IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: 3, Round: 7},
		Flags:     1,
		Data:      []byte{0xAA, 0xBB},
	})
	r.sched.Run()
	if len(kept) != 1 {
		t.Fatalf("handler saw %d entries, want 1", len(kept))
	}
	if e := kept[0]; e.Slot != 0 || e.Round != 0 || e.Flags != 0 || e.Data != nil {
		t.Errorf("entry kept past the handler reads %+v, want zeros", e)
	}
	if len(data) != 2 || data[0] != 0xAA || data[1] != 0xBB {
		t.Errorf("Data kept past the handler reads %x, want aabb", data)
	}
}

// BenchmarkReceiveLogical is one logical packet through the receive path:
// CPU job, decode, verify, dispatch to a handler that reads every entry.
// Steady state allocates nothing.
func BenchmarkReceiveLogical(b *testing.B) {
	s := sim.New(1)
	auth := &SizedAuth{Len: 56, CostSign: 5 * time.Millisecond, CostVerify: 10 * time.Millisecond}
	tr := New(s, sim.NewCPU(s), nil, auth, DefaultConfig(false))
	sum := 0
	tr.Register(packet.KindRBC, HandlerFunc(func(_ uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			sum += int(e.Slot) + len(e.Data)
		}
	}))
	sig, _ := auth.Sign(nil)
	raw, err := (&packet.Frame{
		Sender: 2,
		Sections: []packet.Section{{
			Kind: packet.KindRBC, Phase: packet.PhaseEcho, Nack: packet.NewBitSet(4),
			Entries: []packet.Entry{{Slot: 1, Data: make([]byte, 8)}},
		}},
		Sig: sig,
	}).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.receiveLogical(raw)
		s.Step()
	}
	if got := tr.Stats().LogicalRecv; got != uint64(b.N) {
		b.Fatalf("dispatched %d of %d packets", got, b.N)
	}
}
