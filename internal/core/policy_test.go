package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// The retransmission policy (transport.go): age, demand, settled intents,
// and the NACK rows every frame carries.

const testRetx = 4 * time.Second

// newPolicyRig is newRig with the retransmission timer on at testRetx.
func newPolicyRig(t *testing.T, n int, mutate func(*wireless.Config)) *rig {
	r := newRig(t, n, true, mutate)
	for _, tr := range r.transports {
		tr.m.cfg.RetxInterval = testRetx
	}
	return r
}

// hear replaces node i's handler for kind with one that records when each
// section arrived and the slots of its entries.
func hear(r *rig, i int, kind packet.Kind) *[]heard {
	var got []heard
	r.transports[i].Register(kind, HandlerFunc(func(_ uint16, sec packet.Section) {
		h := heard{at: r.sched.Now()}
		for _, e := range sec.Entries {
			h.slots = append(h.slots, e.Slot)
		}
		got = append(got, h)
	}))
	return &got
}

type heard struct {
	at    time.Duration
	slots []uint8
}

// carrying returns the arrival times of the sections that carried an entry
// of slot.
func carrying(got []heard, slot uint8) []time.Duration {
	var out []time.Duration
	for _, h := range got {
		for _, s := range h.slots {
			if s == slot {
				out = append(out, h.at)
			}
		}
	}
	return out
}

// TestIdleIntentBacksOffGeometrically: an intent nobody asks for — an
// idle, decided epoch's DECIDED claim — is re-sent RetxInterval, 2x, 4x,
// 8x and then 16x the interval after each send (each period stretched by
// its frame's jitter, 0.75–1.25), never faster and never slower.
func TestIdleIntentBacksOffGeometrically(t *testing.T) {
	r := newPolicyRig(t, 2, nil)
	got := hear(r, 1, packet.KindABA)
	r.transports[0].Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseDecided}, Data: []byte{1}})
	r.sched.RunFor(15 * time.Minute)
	sends := carrying(*got, 0)
	if len(sends) < 10 {
		t.Fatalf("%d sends in 15 minutes", len(sends))
	}
	// A send reaches the air a flush window and a signature after it was
	// due; allow a second for that.
	for k := 1; k < len(sends); k++ {
		period := testRetx << min(k-1, 4) // capped at 16x
		lo, hi := period*3/4, period*5/4+time.Second
		if gap := sends[k] - sends[k-1]; gap < lo || gap > hi {
			t.Errorf("re-send %d came %v after the one before, want %v–%v", k, gap, lo, hi)
		}
	}
}

// TestFrameLostAtEveryReceiverIsRepaired: the first frame reaches nobody;
// the first re-send, one jittered interval later, reaches everybody.
func TestFrameLostAtEveryReceiverIsRepaired(t *testing.T) {
	lost := map[wireless.NodeID]bool{}
	r := newPolicyRig(t, 3, nil)
	r.ch.SetDeliveryHook(func(from, to wireless.NodeID, _ []byte) (time.Duration, bool) {
		if from == 0 && !lost[to] {
			lost[to] = true
			return 0, true
		}
		return 0, false
	})
	got := []*[]heard{hear(r, 1, packet.KindRBC), hear(r, 2, packet.KindRBC)}
	r.transports[0].Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 3}, Data: []byte{7}})
	r.sched.RunFor(time.Minute)
	for i, g := range got {
		at := carrying(*g, 3)
		if len(at) == 0 {
			t.Fatalf("node %d never got the intent", i+1)
		}
		if at[0] < testRetx*3/4 || at[0] > testRetx*5/4+time.Second {
			t.Errorf("node %d got the intent at %v, want the first re-send", i+1, at[0])
		}
	}
}

// TestUndoneSlotReturnsToBaseRate: two intents have backed off to the
// slowest period; a peer's row shows one slot done and the other undone.
// The undone one goes out at once, at age zero; the done one keeps its
// schedule. The window watched after the request is the shortest base
// period, testRetx × 0.75: a second re-send at age zero comes no sooner
// after the first.
func TestUndoneSlotReturnsToBaseRate(t *testing.T) {
	r := newPolicyRig(t, 2, nil)
	got := hear(r, 1, packet.KindRBC)
	tr := r.transports[0]
	for slot := uint8(0); slot < 2; slot++ {
		tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: slot}, Data: []byte{slot}})
	}
	r.sched.RunFor(2*time.Minute + 30*time.Second)
	for _, e := range tr.live {
		if e.age != maxAge {
			t.Fatalf("slot %d at age %d after two idle minutes, want %d", e.Slot, e.age, maxAge)
		}
	}
	asked := r.sched.Now()
	row := packet.NewBitSet(4)
	row.Set(0)
	r.transports[1].SetNack(packet.KindRBC, packet.PhaseEcho, row) // a frame of its own
	r.sched.RunFor(testRetx * 3 / 4)
	after := func(slot uint8) (n int) {
		for _, at := range carrying(*got, slot) {
			if at > asked {
				n++
			}
		}
		return n
	}
	if after(1) != 1 || after(0) != 0 {
		t.Fatalf("within %v of the row: slot 1 sent %d times, slot 0 %d; want once and not at all", testRetx*3/4, after(1), after(0))
	}
	if a0, a1 := tr.live[0].age, tr.live[1].age; a0 != maxAge || a1 != 0 {
		t.Errorf("ages after the request: slot 0 %d, slot 1 %d; want %d and 0", a0, a1, maxAge)
	}
}

// TestEntrylessRowLetsLastConfirmerPrune: node 1 has nothing of the phase
// left on the air, so its done bit travels in an entry-less section — and
// node 0, whose transport parks the intent once its peer confirms, hears
// it and goes quiet by itself.
func TestEntrylessRowLetsLastConfirmerPrune(t *testing.T) {
	r := newPolicyRig(t, 2, nil)
	tr := r.transports[0]
	key := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseReady, Slot: 2}
	var confirmation *packet.Section
	tr.Register(packet.KindRBC, HandlerFunc(func(_ uint16, sec packet.Section) {
		if sec.Phase == packet.PhaseReady && sec.Nack.Get(2) {
			c := sec
			confirmation = &c
		}
	}))
	tr.Update(Intent{IntentKey: key, Data: []byte{9}})
	r.sched.RunFor(30 * time.Second)
	done := packet.NewBitSet(4)
	done.Set(2)
	r.transports[1].SetNack(packet.KindRBC, packet.PhaseReady, done)
	r.sched.RunFor(5 * time.Second)
	if confirmation == nil {
		t.Fatal("the confirming row never arrived")
	}
	if len(confirmation.Entries) != 0 {
		t.Errorf("the confirming section carried %d entries, want an entry-less row", len(confirmation.Entries))
	}
	sent := tr.Stats().LogicalSent
	r.sched.RunFor(10 * time.Minute)
	if n := tr.Stats().LogicalSent - sent; n != 0 || len(tr.live) != 1 || tr.live[0].due != never {
		t.Errorf("after the confirmation: %d more frames sent, %d intents live; want none sent and the one parked", n, len(tr.live))
	}
}

// TestConfirmedIntentParks: the transport takes an intent off the air when
// the last peer's row confirms its slot, even one updated but not yet sent;
// it keeps it, and a row that withdraws the confirmation brings it back at
// once. A peer that withdraws and re-grants the confirmation with every
// frame it sends, a frame a second, gets the intent at most once per base
// period: about one re-send for every two withdrawals.
func TestConfirmedIntentParks(t *testing.T) {
	r := newPolicyRig(t, 3, nil)
	tr, got := r.transports[0], hear(r, 1, packet.KindRBC)
	key := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 1}
	done, undone := packet.NewBitSet(4), packet.NewBitSet(4)
	done.Set(1)
	r.transports[1].SetNack(key.Kind, key.Phase, done)
	r.sched.RunFor(5 * time.Second)

	// Node 0 updates the intent while it takes in node 2's frame, whose row
	// is the last confirmation: the handler runs before the transport reads
	// the row.
	updated := false
	tr.Register(packet.KindRBC, HandlerFunc(func(from uint16, sec packet.Section) {
		if from == 2 && sec.Nack.Get(1) && !updated {
			updated = true
			tr.Update(Intent{IntentKey: key, Data: []byte{1}})
		}
	}))
	r.transports[2].SetNack(key.Kind, key.Phase, done)
	r.sched.RunFor(time.Minute)
	if !updated {
		t.Fatal("node 2's confirming row never arrived")
	}
	if n := len(carrying(*got, 1)); n != 0 || tr.Stats().LogicalSent != 0 {
		t.Fatalf("the confirmed intent went out %d times in %d frames", n, tr.Stats().LogicalSent)
	}
	if len(tr.live) != 1 || tr.nDirty != 0 || tr.live[0].due != never {
		t.Fatalf("%d intents live, %d dirty: want the one parked", len(tr.live), tr.nDirty)
	}

	withdrawn := r.sched.Now()
	r.transports[2].SetNack(key.Kind, key.Phase, undone)
	r.sched.RunFor(2 * time.Second)
	if n := between(carrying(*got, 1), withdrawn, r.sched.Now()); n != 1 {
		t.Fatalf("%d sends within 2 s of the withdrawn confirmation, want 1", n)
	}

	// For two minutes node 2 flips its row every second: each frame it
	// sends withdraws or re-grants the confirmation.
	rows, flips := [2]packet.BitSet{undone, done}, 0
	var flip func()
	flip = func() {
		flips++
		r.transports[2].SetNack(key.Kind, key.Phase, rows[flips%2])
		if flips < 120 {
			r.sched.PostAfter(time.Second, flip)
		}
	}
	flapped := r.sched.Now()
	flip()
	r.sched.RunFor(2 * time.Minute)
	sends := carrying(*got, 1)
	sends = sends[len(sends)-between(sends, flapped, r.sched.Now()):]
	if len(sends) < 10 {
		t.Fatalf("node 0 sent the intent %d times to a peer that withdraws it %d times", len(sends), flips/2)
	}
	// Sends are built one base period after the one before; arrivals differ
	// from builds by a contention round.
	for k := 1; k < len(sends); k++ {
		if gap := sends[k] - sends[k-1]; gap < testRetx-time.Second {
			t.Errorf("re-send %d came %v after the one before, want at least %v", k, gap, testRetx)
		}
	}
	t.Logf("%d withdrawals, %d re-sends in %v", flips/2, len(sends), r.sched.Now()-flapped)
}

// TestSettledIntentWaitsToBeAsked: once every peer whose row has arrived
// shows a slot done, its intent leaves the air — and a peer whose row goes
// undone again (back from a crash) gets it at once.
func TestSettledIntentWaitsToBeAsked(t *testing.T) {
	r := newPolicyRig(t, 3, nil)
	got := hear(r, 2, packet.KindRBC)
	tr := r.transports[0]
	tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 1}, Data: []byte{1}})
	r.sched.RunFor(time.Second)
	done := packet.NewBitSet(4)
	done.Set(1)
	for _, peer := range r.transports[1:] {
		peer.SetNack(packet.KindRBC, packet.PhaseEcho, done)
	}
	r.sched.RunFor(20 * time.Second) // the first re-send falls due and is dropped
	sent := tr.Stats().LogicalSent
	r.sched.RunFor(10 * time.Minute)
	if n := tr.Stats().LogicalSent - sent; n != 0 {
		t.Fatalf("%d frames sent for an intent every peer has", n)
	}
	reborn := r.sched.Now()
	r.transports[2].SetNack(packet.KindRBC, packet.PhaseEcho, packet.NewBitSet(4))
	r.sched.RunFor(5 * time.Second)
	if at := carrying(*got, 1); len(at) == 0 || at[len(at)-1] < reborn {
		t.Fatal("the reborn peer's undone row did not bring the intent back")
	}
}

// TestHeldIntentWaitsToBeAsked: a held intent starts off the air. It is
// not sent while no row asks for it, nor for a row that shows its slot
// done; the first row that shows the slot undone brings it out at once. A
// Hold on a key already in the store changes nothing.
func TestHeldIntentWaitsToBeAsked(t *testing.T) {
	r := newPolicyRig(t, 3, nil)
	tr := r.transports[0]
	got := []*[]heard{hear(r, 1, packet.KindCBCValue), hear(r, 2, packet.KindCBCValue)}
	held := IntentKey{Kind: packet.KindCBCValue, Phase: packet.PhaseFinish, Slot: 1}
	tr.Hold(Intent{IntentKey: held, Data: []byte{1}})
	r.sched.RunFor(time.Minute)
	if n := tr.Stats().LogicalSent; n != 0 || tr.nDirty != 0 || len(tr.live) != 1 || tr.live[0].due != never {
		t.Fatalf("after a minute unasked: %d frames sent, %d dirty, %d live", n, tr.nDirty, len(tr.live))
	}

	tr.Hold(Intent{IntentKey: held, Data: []byte{2}})
	live := IntentKey{Kind: packet.KindCBCValue, Phase: packet.PhaseFinish, Slot: 2}
	tr.Update(Intent{IntentKey: live, Data: []byte{3}})
	before := slices.Clone(tr.live)
	tr.Hold(Intent{IntentKey: live, Data: []byte{4}})
	if !reflect.DeepEqual(tr.live, before) || tr.live[0].Data[0] != 1 {
		t.Fatalf("Hold on live keys changed the store: %+v, want %+v", tr.live, before)
	}
	r.sched.RunFor(time.Minute)

	done := packet.NewBitSet(4)
	done.Set(1)
	r.transports[1].SetNack(held.Kind, held.Phase, done)
	r.sched.RunFor(time.Minute)
	for i, g := range got {
		if n := len(carrying(*g, 1)); n != 0 {
			t.Fatalf("node %d got the held intent %d times before any row showed it undone", i+1, n)
		}
	}

	asked := r.sched.Now()
	undone := packet.NewBitSet(4)
	undone.Set(2)
	r.transports[2].SetNack(held.Kind, held.Phase, undone)
	r.sched.RunFor(5 * time.Second)
	if at := carrying(*got[1], 1); len(at) != 1 || at[0] < asked {
		t.Fatalf("node 2 got the held intent at %v after its undone row at %v, want once", at, asked)
	}
}

// TestInjectKeepsHeldIntentHeld: state an interceptor plants (Inject) on
// a held intent replaces its data and leaves it off the air, so that an
// equivocator's conflicting variant of what it serves goes only to a peer
// that asks; on an intent on the air, it goes out at once.
func TestInjectKeepsHeldIntentHeld(t *testing.T) {
	r := newPolicyRig(t, 3, nil)
	tr := r.transports[0]
	var got [][]byte // the data of node 0's entries node 1 heard, in order
	r.transports[1].Register(packet.KindRBC, HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			if from == 0 {
				got = append(got, append([]byte(nil), e.Data...))
			}
		}
	}))
	held := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseRepair, Slot: 1}
	tr.Hold(Intent{IntentKey: held, Data: []byte("true")})
	tr.Inject(Intent{IntentKey: held, Data: []byte("conflict")})
	r.sched.RunFor(time.Minute)
	if len(got) != 0 || tr.nDirty != 0 {
		t.Fatalf("an injected variant of a held intent went on the air unasked: %q", got)
	}
	r.transports[1].SetNack(held.Kind, held.Phase, rowOf(4, 0, 2, 3))
	r.sched.RunFor(5 * time.Second)
	if len(got) != 1 || string(got[0]) != "conflict" {
		t.Fatalf("the asking peer got %q, want the injected variant once", got)
	}
	live := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial, Slot: 1}
	tr.Update(Intent{IntentKey: live, Data: []byte("true")})
	r.sched.RunFor(5 * time.Second)
	tr.Inject(Intent{IntentKey: live, Data: []byte("conflict")})
	r.sched.RunFor(5 * time.Second)
	if n := len(got); n != 3 || string(got[1]) != "true" || string(got[2]) != "conflict" {
		t.Fatalf("a live intent and its injected variant: heard %q, want each once", got[1:])
	}
}

// turnLog is a listening station that records who transmitted when.
type turnLog struct {
	sched *sim.Scheduler
	from  []wireless.NodeID
	at    []time.Duration
}

func (l *turnLog) ReceiveFrame(from wireless.NodeID, _ []byte) {
	l.from = append(l.from, from)
	l.at = append(l.at, l.sched.Now())
}

// of returns when the frames of station id were heard.
func (l *turnLog) of(id wireless.NodeID) (out []time.Duration) {
	for i, f := range l.from {
		if f == id {
			out = append(out, l.at[i])
		}
	}
	return out
}

// listen attaches a turnLog to the rig's channel.
func listen(r *rig) *turnLog {
	l := &turnLog{sched: r.sched}
	r.ch.Attach(99, l)
	return l
}

// speaker returns a function that has node i transmit one frame: a change to
// a NACK row of a phase no test intent here uses, which goes out once and
// is never re-sent.
func speaker(r *rig) func(i int) {
	said := make([]int, len(r.transports))
	return func(i int) {
		said[i]++
		row := packet.NewBitSet(64)
		row.Set(said[i])
		r.transports[i].SetNack(packet.KindPRBC, packet.PhaseDone, row)
	}
}

// between counts the times in ts that fall in (lo, hi].
func between(ts []time.Duration, lo, hi time.Duration) (n int) {
	for _, t := range ts {
		if t > lo && t <= hi {
			n++
		}
	}
	return n
}

// TestUnaskedResendWaitsForEveryLivePeer: a re-send nobody asked for goes
// out only once every live peer has been heard since the intent last went
// out. Hearing one of two peers again is not enough; hearing the second
// sends it.
func TestUnaskedResendWaitsForEveryLivePeer(t *testing.T) {
	r := newPolicyRig(t, 3, nil)
	air, speak := listen(r), speaker(r)
	r.transports[0].Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux}, Data: []byte{1}})
	r.sched.RunFor(time.Second)
	speak(1)
	speak(2)
	r.sched.RunFor(19 * time.Second) // the first re-send passes, the second falls due
	if n := len(air.of(0)); n != 2 {
		t.Fatalf("%d frames from node 0 in 20 s, want the first send and one re-send", n)
	}
	speak(1)
	r.sched.RunFor(10 * time.Second)
	if n := len(air.of(0)); n != 2 {
		t.Fatalf("node 0 re-sent with node 2 not yet heard again (%d frames)", n)
	}
	heard := r.sched.Now()
	speak(2)
	r.sched.RunFor(3 * time.Second)
	if n := between(air.of(0), heard, r.sched.Now()); n != 1 {
		t.Fatalf("%d re-sends within 3 s of hearing the last live peer, want 1", n)
	}
}

// TestAskedResendIsNotPaced: a peer's undone row brings an intent out even
// though another live peer has not been heard since it last went out —
// at once when it was already due and waiting for that peer's turn, and
// one base period after its last send when the ask comes sooner.
func TestAskedResendIsNotPaced(t *testing.T) {
	r := newPolicyRig(t, 3, nil)
	air, speak := listen(r), speaker(r)
	r.transports[0].Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: 1}, Data: []byte{1}})
	r.sched.RunFor(time.Second)
	speak(2) // node 2 is live from here on, and silent
	r.sched.RunFor(19 * time.Second)
	if n := len(air.of(0)); n != 2 {
		t.Fatalf("%d frames from node 0 in 20 s, want the first send and one re-send", n)
	}
	ask := func() time.Duration {
		row := packet.NewBitSet(4)
		row.Set(0) // slot 1 undone
		row.Set(2 + len(air.of(1)))
		r.transports[1].SetNack(packet.KindRBC, packet.PhaseEcho, row)
		return r.sched.Now()
	}
	asked := ask()
	r.sched.RunFor(2 * time.Second)
	if n := between(air.of(0), asked, r.sched.Now()); n != 1 {
		t.Fatalf("%d re-sends within 2 s of an ask for a due intent, want 1", n)
	}
	asked = ask()
	r.sched.RunFor(testRetx*5/4 + 2*time.Second)
	if n := between(air.of(0), asked, r.sched.Now()); n != 1 {
		t.Fatalf("%d re-sends within a base period of an ask for an intent just sent, want 1", n)
	}
}

// TestSilentPeerStopsPacing: a peer heard once and then silent holds the
// unasked re-sends back until its last frame is RetxInterval << maxAge old,
// and not a moment longer.
func TestSilentPeerStopsPacing(t *testing.T) {
	r := newPolicyRig(t, 2, nil)
	air, speak := listen(r), speaker(r)
	r.transports[0].Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux}, Data: []byte{1}})
	r.sched.RunFor(time.Second)
	speak(1)
	r.sched.RunFor(2 * time.Minute)
	last := air.of(1)
	if len(last) != 1 {
		t.Fatalf("node 1 sent %d frames, want 1", len(last))
	}
	lapse := last[0] + testRetx<<maxAge
	sends := air.of(0)
	if len(sends) < 3 {
		t.Fatalf("%d frames from node 0 in two minutes, want the re-sends to resume", len(sends))
	}
	// The first re-send came before the lapse (node 1 was heard after the
	// first send); the second waited for it.
	if sends[1] > lapse || sends[2] < lapse || sends[2] > lapse+time.Second {
		t.Errorf("re-sends at %v and %v, want one before and one just after %v", sends[1], sends[2], lapse)
	}
}

// buildLog is a listening station that records, for each frame it hears,
// when it ended and when its sender built it: the sender's one intent went
// out in every frame of its, so its sentAt is the frame's build time.
type buildLog struct {
	r            *rig
	heard, built [][]time.Duration // by sender
}

func (l *buildLog) ReceiveFrame(from wireless.NodeID, _ []byte) {
	l.heard[from] = append(l.heard[from], l.r.sched.Now())
	l.built[from] = append(l.built[from], l.r.transports[from].live[0].sentAt)
}

// TestRowlessResendsCycle: four nodes that hold nothing but intents no NACK
// row covers keep re-sending them — no node waits on another that waits on
// it — and every re-send is built only once each other node has been heard
// since the frame before it was built, or has been silent for the live
// window (a period at the slowest age is up to 1.25 × the window, so that
// happens here).
func TestRowlessResendsCycle(t *testing.T) {
	r := newPolicyRig(t, 4, nil)
	air := &buildLog{r: r, heard: make([][]time.Duration, 4), built: make([][]time.Duration, 4)}
	r.ch.Attach(99, air)
	for i, tr := range r.transports {
		tr.Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux, Slot: uint8(i)}, Data: []byte{1}})
	}
	r.sched.RunFor(15 * time.Minute)
	for i := range r.transports {
		built := air.built[i]
		if len(built) < 10 {
			t.Fatalf("node %d sent %d frames in 15 minutes", i, len(built))
		}
		for k := 1; k < len(built); k++ {
			for j := range r.transports {
				if j == i || between(air.heard[j], built[k-1], built[k]) > 0 {
					continue
				}
				if between(air.heard[j], built[k]-testRetx<<maxAge, built[k]) > 0 {
					t.Fatalf("node %d built a re-send at %v without hearing node %d, live, since %v", i, built[k], j, built[k-1])
				}
			}
		}
	}
}
