package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/wireless"
)

// rowOf is a NACK row of n bits with the given ones set.
func rowOf(n int, bits ...int) packet.BitSet {
	b := packet.NewBitSet(n)
	for _, i := range bits {
		b.Set(i)
	}
	return b
}

// TestStaleRowMarksNoRegression: a packet that arrives after a newer one
// from the same sender — the delay adversary held it back — still delivers
// its entries and its row still asks for what it shows undone, but the row
// is not kept and its sender is not marked regressed, though it lacks a bit
// the newer row has. A peer reborn with an empty row still is: its
// sequence numbers run on across the crash.
func TestStaleRowMarksNoRegression(t *testing.T) {
	r := newMuxRig(t, 2, true)
	// Node 0 re-sends nothing on its own in the test's span: a row's ask
	// shows as the intent's asked mark.
	r.muxes[0].cfg.RetxInterval = time.Hour
	rx, tx := r.muxes[0].Open(1), r.muxes[1].Open(1)
	hold := false
	r.ch.SetDeliveryHook(func(from, to wireless.NodeID, _ []byte) (time.Duration, bool) {
		if from == 1 && hold {
			return 10 * time.Second, false
		}
		return 0, false
	})
	var got []byte
	rx.Register(packet.KindRBC, HandlerFunc(func(_ uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			got = append(got, e.Data[0])
		}
	}))
	// Node 0 has sent its ECHO of slot 2; node 1 has not confirmed it.
	rx.Update(intentFor(2))
	r.sched.RunFor(time.Second)

	hold = true
	tx.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4, 0))
	tx.Update(intentFor(0))
	r.sched.RunFor(time.Second)
	hold = false
	tx.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4, 0, 1))
	tx.Update(intentFor(1))
	r.sched.RunFor(5 * time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("before the held packet arrived: entries %v, want [1]", got)
	}
	i, _ := rx.find(intentFor(2).IntentKey)
	rx.live[i].asked = false
	r.sched.RunFor(10 * time.Second)
	if len(got) != 2 || got[1] != 0 {
		t.Errorf("the held packet's entries were not delivered: %v", got)
	}
	if !rx.live[i].asked {
		t.Error("the held packet's row did not ask for the slot it shows undone")
	}
	if rx.regressed.Get(1) {
		t.Error("a held-back packet marked its sender regressed")
	}
	if kept := rx.rows[0].peers[1]; !kept.Get(1) {
		t.Errorf("the held-back row %v replaced the newer one", kept)
	}

	r.muxes[1].Close(1)
	reborn := r.muxes[1].Open(1)
	reborn.SetNack(packet.KindRBC, packet.PhaseEcho, packet.NewBitSet(4))
	reborn.Update(intentFor(3))
	r.sched.RunFor(5 * time.Second)
	if !rx.regressed.Get(1) {
		t.Error("a peer reborn with an empty row is not marked regressed")
	}
}

// TestRepairRowMarksNoRegression: a REPAIR row clears a slot's bit each
// time its node comes to want that slot's value, so a live peer that got
// one value and then wants another sends a row that lost a bit it had
// shown; that marks nobody regressed. An ECHO row that loses a bit still
// does.
func TestRepairRowMarksNoRegression(t *testing.T) {
	r := newMuxRig(t, 2, true)
	rx, tx := r.muxes[0].Open(1), r.muxes[1].Open(1)
	send := func(phase packet.Phase, row packet.BitSet, slot uint8) {
		tx.SetNack(packet.KindRBC, phase, row)
		tx.Update(intentFor(slot))
		r.sched.RunFor(5 * time.Second)
	}
	// Node 1 wants slot 1's value, gets it, then wants slot 2's.
	for i, row := range []packet.BitSet{rowOf(4, 0, 2, 3), rowOf(4, 0, 1, 2, 3), rowOf(4, 0, 1, 3)} {
		send(packet.PhaseRepair, row, uint8(i))
		if kept := rx.row(packet.KindRBC, packet.PhaseRepair).peers; len(kept) < 2 || !slices.Equal(kept[1], row) {
			t.Fatalf("REPAIR row %d was not heard: kept %v, sent %v", i, kept, row)
		}
	}
	if rx.regressed.Get(1) {
		t.Error("a REPAIR row that came to want a second value marked its sender regressed")
	}
	send(packet.PhaseEcho, rowOf(4, 0, 1), 3)
	send(packet.PhaseEcho, rowOf(4, 0), 3)
	if !rx.regressed.Get(1) {
		t.Error("an ECHO row that lost a bit did not mark its sender regressed")
	}
}

// TestStaleIsPerEpoch: a station's packets are stale only against its
// newer ones of the same epoch. A held-back epoch-1 packet that comes
// after the station's epoch-2 packet is still the newest of epoch 1 heard
// from it, and its row replaces the one kept.
func TestStaleIsPerEpoch(t *testing.T) {
	r := newMuxRig(t, 2, true)
	rx1 := r.muxes[0].Open(1)
	r.muxes[0].Open(2)
	tx1, tx2 := r.muxes[1].Open(1), r.muxes[1].Open(2)
	hold := false
	r.ch.SetDeliveryHook(func(from, to wireless.NodeID, _ []byte) (time.Duration, bool) {
		if from == 1 && hold {
			return 10 * time.Second, false
		}
		return 0, false
	})
	tx1.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4, 0))
	tx1.Update(intentFor(0))
	r.sched.RunFor(time.Second)
	hold = true
	tx1.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4, 0, 1))
	tx1.Update(intentFor(1))
	r.sched.RunFor(time.Second)
	hold = false
	tx2.Update(intentFor(2))
	r.sched.RunFor(15 * time.Second)
	if kept := rx1.rows[0].peers[1]; !kept.Get(1) {
		t.Errorf("epoch 1 kept %v from node 1; the held-back row, its newest of the epoch, was dropped as stale", kept)
	}
}

// TestDelayAdversaryMarksNoRegression runs four nodes over two epochs for
// ten minutes under the delay adversary of scenario.Delay(0.25, 10 s), with
// no crash: every node's rows only gain bits, a few every second, and each
// change goes out with an entry. The adversary reorders packets — the test
// checks it did — and no transport marks any peer regressed.
func TestDelayAdversaryMarksNoRegression(t *testing.T) {
	const n, bits = 4, 64
	r := newMuxRig(t, n, true)
	eng := scenario.Start(r.sched, scenario.Delay(0.25, 10*time.Second), 1, nil)
	delay := eng.HookNetOnly()
	// latest is, by (sender, receiver), when the last radio frame handed
	// over so far arrives; reordered counts frames that arrive before one
	// handed over earlier.
	type pair struct{ from, to wireless.NodeID }
	latest := map[pair]time.Duration{}
	reordered := 0
	r.ch.SetDeliveryHook(func(from, to wireless.NodeID, payload []byte) (time.Duration, bool) {
		extra, drop := delay(from, to, payload)
		at, p := r.sched.Now()+extra, pair{from, to}
		if !drop && at < latest[p] {
			reordered++
		}
		if !drop {
			latest[p] = max(latest[p], at)
		}
		return extra, drop
	})
	rows := make([][]int, n)
	for i, m := range r.muxes {
		m.cfg.RetxInterval = 4 * time.Second
		for e := uint16(1); e <= 2; e++ {
			m.Open(e)
		}
		i := i
		var step func()
		step = func() {
			if len(rows[i]) == bits {
				return
			}
			rows[i] = append(rows[i], len(rows[i]))
			e := uint16(1 + len(rows[i])%2)
			tr := r.muxes[i].Lookup(e)
			tr.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(bits, rows[i]...))
			tr.Update(intentFor(uint8(len(rows[i]))))
			r.sched.PostAfter(time.Duration(1+i)*time.Second, step)
		}
		r.sched.PostAfter(time.Duration(i)*100*time.Millisecond, step)
	}
	r.sched.RunFor(10 * time.Minute)
	if reordered == 0 {
		t.Fatal("the delay adversary reordered nothing")
	}
	for i, m := range r.muxes {
		for _, tr := range m.epochs {
			for w := 0; w < n; w++ {
				if tr.regressed.Get(w) {
					t.Errorf("node %d, epoch %d: peer %d marked regressed", i, tr.epoch, w)
				}
			}
		}
	}
}

// TestParkedIntentAnswersRegressedPeer: an intent the component parked
// (ParkWhere, as the ABAs prune the rounds they have left behind) stays
// off the air when a live peer sends an entry of the same key — a
// laggard's stale entries are ordinary traffic. Once that peer's row has
// lost a bit it had shown, its entry is a request: the parked intent
// goes out again, whatever node the entry's Sub names, and a request
// that comes less than one base period after the intent last went out is
// answered only then. An answer goes out once: the intent is parked again,
// so ten minutes after one request it has been sent exactly once more.
func TestParkedIntentAnswersRegressedPeer(t *testing.T) {
	const base = 4 * time.Second
	r := newMuxRig(t, 3, true)
	for _, m := range r.muxes {
		m.cfg.RetxInterval = base
	}
	srv, peer := r.muxes[0].Open(1), r.muxes[1].Open(1)
	r.muxes[2].Open(1)
	share := func(sub uint8, round uint16) Intent {
		return Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseShare, Sub: sub, Round: round}, Data: []byte{sub}}
	}
	var served []time.Duration // when node 2 heard node 0's round-1 share
	r.muxes[2].Lookup(1).Register(packet.KindABA, HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			if from == 0 && e.Round == 1 {
				served = append(served, r.sched.Now())
			}
		}
	}))
	// ask has the peer send its own round-1 share once.
	ask := func(data byte) {
		in := share(1, 1)
		in.Data = []byte{data}
		peer.Update(in)
		r.sched.RunFor(time.Second)
		peer.ParkWhere(func(k IntentKey) bool { return k == in.IntentKey })
	}

	srv.Update(share(0, 1))
	srv.Update(share(0, 2))
	r.sched.RunFor(time.Second)
	srv.ParkWhere(func(k IntentKey) bool { return k.Round < 2 })
	if len(served) != 1 {
		t.Fatalf("the share went out %d times before it was parked, want once", len(served))
	}
	ask(1)
	r.sched.RunFor(time.Minute)
	if len(served) != 1 {
		t.Fatalf("a live peer's entry brought the parked share back %d times", len(served)-1)
	}

	peer.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4, 0))
	r.sched.RunFor(time.Second)
	peer.SetNack(packet.KindRBC, packet.PhaseEcho, packet.NewBitSet(4))
	r.sched.RunFor(time.Second)
	if !srv.regressed.Get(1) {
		t.Fatal("the peer's row lost a bit and the transport did not mark it")
	}
	ask(2)
	if len(served) != 2 {
		t.Fatalf("the regressed peer's entry: the parked share went out %d times more, want once", len(served)-1)
	}
	ask(3)
	if len(served) != 2 {
		t.Fatalf("a second request %v after the answer was answered at once", served[1]-served[0])
	}
	r.sched.RunFor(10 * time.Minute)
	if len(served) != 3 || served[2]-served[1] < base {
		t.Errorf("the second request: %d answers in ten minutes, the last %v after the first; want one, a base period later", len(served)-2, served[len(served)-1]-served[1])
	}
}

// TestServedEntryIsNoRequest: in a phase that has a NACK row — here only a
// peer's, as a value holder keeps none of the REPAIR phase it serves — an
// entry of a peer that lost state is what a row asked for, not a request.
// Node 0 holds slot 1's REPAIR fragment; node 1, marked regressed by an
// ECHO row that lost its bits, sends a REPAIR row that asks for slot 0 alone, and serves a slot-1 fragment of
// its own. Node 0's fragment stays off the air; the slot-0 one the row
// asks for goes out.
func TestServedEntryIsNoRequest(t *testing.T) {
	const base = 4 * time.Second
	r := newMuxRig(t, 3, true)
	for _, m := range r.muxes {
		m.cfg.RetxInterval = base
	}
	srv, peer := r.muxes[0].Open(1), r.muxes[1].Open(1)
	r.muxes[2].Open(1)
	fragment := func(slot uint8) Intent {
		return Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseRepair, Slot: slot}, Flags: 1, Data: []byte{slot}}
	}
	served := map[uint8]int{} // node 0's REPAIR entries node 2 heard, by slot
	r.muxes[2].Lookup(1).Register(packet.KindRBC, HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			if from == 0 && sec.Phase == packet.PhaseRepair {
				served[e.Slot]++
			}
		}
	}))
	srv.Hold(fragment(0))
	srv.Hold(fragment(1))
	peer.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4, 0, 1, 2, 3))
	peer.SetNack(packet.KindRBC, packet.PhaseRepair, rowOf(4, 0, 1, 2, 3))
	r.sched.RunFor(time.Second)
	peer.SetNack(packet.KindRBC, packet.PhaseEcho, rowOf(4))
	peer.SetNack(packet.KindRBC, packet.PhaseRepair, rowOf(4, 1, 2, 3))
	r.sched.RunFor(time.Second)
	if !srv.regressed.Get(1) {
		t.Fatal("the peer's ECHO row lost its bits and the transport did not mark it")
	}
	peer.Update(fragment(1))
	r.sched.RunFor(time.Minute)
	if served[1] != 0 || served[0] == 0 {
		t.Errorf("node 0 served slot 1 %d times and slot 0 %d times; want slot 0 alone", served[1], served[0])
	}
}
