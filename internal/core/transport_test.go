package core

import (
	"bytes"
	"fmt"
	"slices"
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
				r.received[i][k] = append(r.received[i][k], recv{from, keepSection(sec)})
			}))
		}
	}
	return r
}

// keepSection copies a section deep enough to keep it: a section is the
// transport's only until the handler returns, its entries the decoder's
// storage and its bytes the packet buffer.
func keepSection(sec packet.Section) packet.Section {
	sec.Nack = packet.BitSet(bytes.Clone(sec.Nack))
	sec.Entries = slices.Clone(sec.Entries)
	for i := range sec.Entries {
		sec.Entries[i].Data = bytes.Clone(sec.Entries[i].Data)
	}
	return sec
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
	if n := r.ch.Stats().Accesses; n != 1 {
		t.Errorf("the packet's fragments took %d channel accesses, want 1 burst", n)
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

// interceptFunc adapts a function to Interceptor.
type interceptFunc func(in Intent) []Intent

func (f interceptFunc) Outbound(_ *Transport, in Intent) []Intent { return f(in) }

// TestReviseKeepsSchedule: Revise swaps a live intent's flags and data and
// nothing else — whether it is dirty, when it last went out, when it is
// next due and how old it is stay as they were — goes through the
// interceptor, and does not bring back an intent its component removed.
func TestReviseKeepsSchedule(t *testing.T) {
	r := newPolicyRig(t, 2, nil)
	tr := r.transports[0]
	var intercepted []Intent
	tr.SetInterceptor(interceptFunc(func(in Intent) []Intent {
		intercepted = append(intercepted, in)
		return []Intent{in}
	}))
	key := IntentKey{Kind: packet.KindABA, Phase: packet.PhaseShare, Slot: 1, Round: 2}
	tr.Update(Intent{IntentKey: key, Data: []byte("share")})
	// Sent, then re-sent once unasked: clean, one age older, due later.
	r.sched.RunFor(8 * time.Second)
	if i, found := tr.find(key); !found || tr.live[i].age != 1 || tr.live[i].dirty {
		t.Fatalf("set-up: found %v, %+v", found, tr.live[i])
	}
	revised := func(data string) {
		t.Helper()
		i, _ := tr.find(key)
		before, dirty := tr.live[i], tr.nDirty
		tr.Revise(Intent{IntentKey: key, Flags: 1, Data: []byte(data)})
		after := tr.live[i]
		if after.Flags != 1 || string(after.Data) != data {
			t.Errorf("revised to flags %d, %q", after.Flags, after.Data)
		}
		if after.dirty != before.dirty || after.asked != before.asked || after.age != before.age ||
			after.sentAt != before.sentAt || after.due != before.due || tr.nDirty != dirty {
			t.Errorf("revising moved the schedule: %+v (%d dirty), was %+v (%d dirty)", after, tr.nDirty, before, dirty)
		}
		if last := intercepted[len(intercepted)-1]; string(last.Data) != data {
			t.Errorf("the interceptor last saw %q", last.Data)
		}
	}
	revised("cert")
	sent := tr.Stats().LogicalSent
	r.sched.RunFor(time.Second)
	if tr.Stats().LogicalSent != sent {
		t.Error("revising a clean intent sent a frame")
	}
	// A dirty intent stays dirty, and its frame carries the new data.
	other := IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: 1}
	tr.Update(Intent{IntentKey: other, Data: []byte{1}})
	i, _ := tr.find(key)
	tr.markDirty(&tr.live[i])
	revised("certificate")
	r.sched.RunFor(time.Second)
	last := r.received[1][packet.KindABA]
	if got := last[len(last)-1].sec; got.Phase != packet.PhaseShare || string(got.Entries[0].Data) != "certificate" || got.Entries[0].Flags != 1 {
		t.Errorf("frame after revising a dirty intent carried %+v", got)
	}
	// A removed intent stays removed, and the interceptor is not asked.
	tr.Remove(key)
	seen, live := len(intercepted), len(tr.live)
	tr.Revise(Intent{IntentKey: key, Flags: 1, Data: []byte("late")})
	if _, found := tr.find(key); found || len(tr.live) != live || len(intercepted) != seen {
		t.Error("revising a removed intent brought it back")
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

// TestIntentSetWhileContendingRidesTheWinningFrame: the frame is built when
// the station wins the medium, not when the aggregation window closes, so
// an intent set while the node is already contending goes out in it.
func TestIntentSetWhileContendingRidesTheWinningFrame(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 0}, Data: []byte{1}})
	// The window has closed and the node contends; its backoff ends no
	// sooner than a DIFS later.
	r.sched.RunUntil(flushDelay + r.ch.Config().DIFS/2)
	if !tr.m.Pending() || tr.Stats().LogicalSent != 0 {
		t.Fatalf("pending=%v sent=%d: want the node contending with nothing sent yet", tr.m.Pending(), tr.Stats().LogicalSent)
	}
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 1}, Data: []byte{2}})
	r.sched.Run()
	if got := tr.Stats().LogicalSent; got != 1 {
		t.Fatalf("LogicalSent = %d, want 1 frame for both intents", got)
	}
	got := r.received[1][packet.KindRBC]
	if len(got) != 1 || len(got[0].sec.Entries) != 2 {
		t.Fatalf("receiver saw %d sections, want one with both entries", len(got))
	}
}

// TestIdleEpochDoesNotContend: an epoch contends only while it is open and
// has something to send. A stopped transport, or one whose intents are
// gone, drops out of the contention it had entered, and nothing goes on
// the air.
func TestIdleEpochDoesNotContend(t *testing.T) {
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
		tr.Update(Intent{IntentKey: key, Data: []byte{1}})
		r.sched.RunUntil(flushDelay)
		if !tr.m.Pending() {
			t.Fatalf("%s: not contending once the window closed", tc.name)
		}
		tc.release(tr)
		if tr.m.Pending() {
			t.Fatalf("%s: still contending", tc.name)
		}
		r.sched.Run()
		if st := r.ch.Stats(); tr.Stats().LogicalSent != 0 || st.Accesses != 0 || st.Collisions != 0 {
			t.Fatalf("%s: sent %d logical packets over %d accesses and %d collisions", tc.name, tr.Stats().LogicalSent, st.Accesses, st.Collisions)
		}
	}
}

// timedEar records when each radio frame it hears ends, and its length.
type timedEar struct {
	sched *sim.Scheduler
	ends  []time.Duration
	lens  []int
}

func (e *timedEar) ReceiveFrame(_ wireless.NodeID, payload []byte) {
	e.ends = append(e.ends, e.sched.Now())
	e.lens = append(e.lens, len(payload))
}

// TestNoFragmentBeforeItsSignature: with the CPU busy when the station
// wins, a frame's signature completes behind that work, and none of its
// fragments starts before then. The packets built at one win are signed
// one after another, each with its own not-before time — a baseline
// node's per-intent packets, each at an access of its own, and a batched
// node's packets for several epochs, in one burst: the second packet may
// not start before the second signature is done, even though the first
// has long left the air.
func TestNoFragmentBeforeItsSignature(t *testing.T) {
	const busy, sign = 2 * time.Second, time.Second
	for _, tc := range []struct {
		name     string
		batched  bool
		epochs   int
		packets  int // logical packets among the three radio frames
		accesses uint64
	}{
		{"batched=true", true, 1, 1, 1},
		{"batched=true,epochs=3", true, 3, 3, 1},
		{"batched=false", false, 1, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2, tc.batched, nil)
			ear := &timedEar{sched: r.sched}
			r.ch.Attach(9, ear)
			tr := r.transports[0]
			tr.m.auth = &SizedAuth{Len: 56, CostSign: sign, CostVerify: 10 * time.Millisecond}
			tr.m.cpu.Exec(busy, func() {})
			switch {
			case tc.epochs > 1:
				// One logical packet of one radio frame in each epoch.
				for e := 0; e < tc.epochs; e++ {
					tr.m.Open(uint16(e)).Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte{1}})
				}
			case tc.batched:
				// One logical packet of three radio frames.
				tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial}, Data: make([]byte, 600)})
			default:
				// Three logical packets of one radio frame each.
				for slot := uint8(0); slot < 3; slot++ {
					tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: slot}, Data: []byte{slot}})
				}
			}
			r.sched.Run()
			if len(ear.ends) != 3 {
				t.Fatalf("%d radio frames heard, want 3", len(ear.ends))
			}
			for k, end := range ear.ends {
				signed := busy + sign // the one logical packet's signature
				if tc.packets > 1 {
					signed = busy + time.Duration(k+1)*sign
				}
				if first := end - r.ch.Config().Airtime(ear.lens[k]); first < signed {
					t.Errorf("radio frame %d started at %v, before its signature completed at %v", k, first, signed)
				}
			}
			st := r.ch.Stats()
			if st.Accesses != tc.accesses {
				t.Errorf("%d channel accesses, want %d", st.Accesses, tc.accesses)
			}
			if st.Held == 0 {
				t.Error("no hold counted")
			}
		})
	}
}

// TestHeldIsTheSignatureWait: with the CPU idle at every win, the medium
// time Stats.Held counts between a win and the first bit is exactly the
// signing cost of each frame.
func TestHeldIsTheSignatureWait(t *testing.T) {
	r := newRig(t, 2, true, nil)
	tr := r.transports[0]
	const sign = 50 * time.Millisecond
	tr.m.auth = &SizedAuth{Len: 56, CostSign: sign}
	for slot := uint8(0); slot < 5; slot++ {
		tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: slot}, Data: []byte{slot}})
		r.sched.Run()
	}
	st := r.ch.Stats()
	if n := tr.Stats().LogicalSent; n != 5 || st.Accesses != 5 || st.Collisions != 0 {
		t.Fatalf("%d frames over %d accesses and %d collisions, want 5 uncontended", n, st.Accesses, st.Collisions)
	}
	if st.Held != 5*sign {
		t.Errorf("Held = %v, want 5 signatures of %v", st.Held, sign)
	}
}

// TestNoEpochStarvesAnother: an open epoch whose NACK row changes with
// every frame its node sends always has something to send, and the newer
// epoch's update still goes out, once, in either mode. A batched node's
// win serves every open epoch with something to send, so the older one's
// rows never take the medium from it; a baseline node serves one epoch per
// win, round-robin, so the older one cannot take every win.
func TestNoEpochStarvesAnother(t *testing.T) {
	for _, batched := range []bool{true, false} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			r := newMuxRig(t, 2, batched)
			old, newer := r.muxes[0].Open(1), r.muxes[0].Open(2)
			r.muxes[1].Open(1)
			var got int
			collect(r.muxes[1].Open(2), &got)
			flips := 0
			flip := func() {
				flips++
				row := packet.NewBitSet(8)
				row.Set(flips % 8)
				old.SetNack(packet.KindABA, packet.PhaseAux, row)
			}
			sent := 0 // node 0's packets of the newer epoch, by their headers
			r.ch.SetDeliveryHook(func(from, _ wireless.NodeID, frame []byte) (time.Duration, bool) {
				if from == 0 {
					flip()
					if _, _, e, ok := packet.PeekHeader(frame[fragHeaderLen:]); ok && frame[6] == 0 && e == 2 {
						sent++
					}
				}
				return 0, false
			})
			flip()
			newer.Update(intentFor(0))
			r.sched.RunFor(30 * time.Second)
			if got != 1 || flips < 10 {
				t.Fatalf("newer epoch delivered %d entries while the older one sent %d rows; want 1 and many", got, flips)
			}
			if sent != 1 {
				t.Errorf("newer epoch sent %d frames, want 1", sent)
			}
		})
	}
}

// TestStationBoundAfterConstruction: a standalone transport made with no
// station (core.New(…, nil, …)) takes updates, and sends them once a
// station is bound.
func TestStationBoundAfterConstruction(t *testing.T) {
	s := sim.New(1)
	wcfg := wireless.DefaultConfig()
	wcfg.LossProb = 0
	ch := wireless.NewChannel(s, wcfg)
	cfg := DefaultConfig(true)
	cfg.RetxInterval = 0
	tr := New(s, sim.NewCPU(s), nil, &SizedAuth{Len: 56, CostSign: 5 * time.Millisecond}, cfg)
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte{1}})
	s.RunFor(time.Second)
	tr.BindStation(ch.Attach(0, tr))
	ear := &airLog{}
	ch.Attach(1, ear)
	s.Run()
	if n := tr.Stats().LogicalSent; n != 1 || len(ear.frames) != 1 {
		t.Fatalf("%d logical packets sent, %d radio frames heard; want 1 and 1", n, len(ear.frames))
	}
}

// TestHandlerMustNotKeepEntries is the retention guard: a received frame's
// sections and entries are the decoder's reused storage, and an entry's
// Data bytes of the Mux's packet buffer, all zeroed as soon as the
// handlers return, so a handler that keeps sec.Entries or an entry's Data
// (and not a copy) reads zeros — not its own frame, and not the next
// one's votes.
func TestHandlerMustNotKeepEntries(t *testing.T) {
	r := newRig(t, 2, true, nil)
	var kept []packet.Entry
	var data []byte
	r.transports[1].Register(packet.KindABA, HandlerFunc(func(_ uint16, sec packet.Section) {
		kept = sec.Entries         // wrong: aliases the decoder's storage
		data = sec.Entries[0].Data // wrong too: aliases the packet buffer
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
	if len(data) != 2 || data[0] != 0 || data[1] != 0 {
		t.Errorf("Data kept past the handler reads %x, want 0000", data)
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
	sig := auth.Sign()
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
		tr.receiveLogical(2, append(tr.m.pkts.take(), raw...), uint32(i))
		s.Step()
	}
	if got := tr.Stats().LogicalRecv; got != uint64(b.N) {
		b.Fatalf("dispatched %d of %d packets", got, b.N)
	}
}
