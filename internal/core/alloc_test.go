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

// deaf hears every frame and does nothing with it.
type deaf struct{}

func (deaf) ReceiveFrame(wireless.NodeID, []byte) {}

// newSendRig is one transport on a lossless channel with one other station
// in range, and the 32 intents over 4 (kind, phase) pairs that one node of
// a 4-node group holds mid-epoch.
func newSendRig(batched bool, retx time.Duration) (*sim.Scheduler, *Transport, []Intent) {
	s := sim.New(1)
	wcfg := wireless.DefaultConfig()
	wcfg.LossProb = 0
	ch := wireless.NewChannel(s, wcfg)
	cfg := DefaultConfig(batched)
	cfg.RetxInterval = retx
	auth := &SizedAuth{Len: 56, CostSign: 15 * time.Millisecond, CostVerify: 30 * time.Millisecond}
	tr := New(s, sim.NewCPU(s), nil, auth, cfg)
	tr.BindStation(ch.Attach(0, tr))
	ch.Attach(1, deaf{})
	var intents []Intent
	for _, kp := range []struct {
		k packet.Kind
		p packet.Phase
	}{{packet.KindRBC, packet.PhaseEcho}, {packet.KindRBC, packet.PhaseReady},
		{packet.KindABA, packet.PhaseBval}, {packet.KindDec, packet.PhaseDecShare}} {
		for i := 0; i < 8; i++ {
			intents = append(intents, Intent{
				IntentKey: IntentKey{Kind: kp.k, Phase: kp.p, Slot: uint8(i % 4), Sub: uint8(i / 4)},
				Data:      []byte{byte(i), 1, 2, 3},
			})
		}
	}
	return s, tr, intents
}

// TestSendPathAllocatesNothing: in the steady state, Update → flush → sign
// → fragment → Broadcast allocates nothing, in both transport modes. Every
// object on the way (the intent store, the section scratch, the CPU job and
// its encode buffer, the signature, the radio queue, the channel's frame
// buffers, the delivery records) is reused.
func TestSendPathAllocatesNothing(t *testing.T) {
	for _, batched := range []bool{true, false} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			s, tr, intents := newSendRig(batched, 0)
			refresh := func() {
				for _, in := range intents {
					tr.Update(in)
				}
				s.Run()
			}
			for i := 0; i < 4; i++ {
				refresh() // grow every buffer to its working size
			}
			const runs = 20
			before := tr.Stats().FragmentsSent
			allocs := testing.AllocsPerRun(runs, refresh)
			frames := float64(tr.Stats().FragmentsSent-before) / (runs + 1) // AllocsPerRun warms up once
			if frames < 1 || allocs != 0 {
				t.Fatalf("%v allocations per refresh for %v radio frames, want none", allocs, frames)
			}
		})
	}
}

// TestRetransmitTimerAllocatesNothing: the retransmission timer re-arms the
// one event the transport owns. Left alone with its state, a transport
// re-sends it on the backed-off schedule (16 x the interval by the time the
// measurement starts), and that allocates nothing; nor does an update whose
// re-send, due one interval after it goes out, pre-empts the armed timer
// (the handle is re-armed where it is queued).
func TestRetransmitTimerAllocatesNothing(t *testing.T) {
	s, tr, intents := newSendRig(true, 4*time.Second)
	for _, in := range intents {
		tr.Update(in)
	}
	s.RunFor(2 * time.Minute)
	var frames uint64
	allocs := testing.AllocsPerRun(1, func() {
		before := tr.Stats().FragmentsSent
		s.RunFor(20 * time.Minute)
		frames = tr.Stats().FragmentsSent - before
	})
	if frames < 15 || allocs != 0 {
		t.Fatalf("%v allocations over %d re-sent radio frames, want none", allocs, frames)
	}
	preempted := 0
	allocs = testing.AllocsPerRun(4, func() {
		armed := tr.retxEvt.At()
		tr.Update(intents[0])
		s.RunFor(time.Second) // the update goes out; its re-send is due in 4 s
		if tr.retxEvt.At() < armed {
			preempted++
		}
		s.RunFor(20 * time.Minute)
	})
	if preempted != 5 || allocs != 0 {
		t.Fatalf("%v allocations per pre-empting update (%d of 5 pre-empted), want none", allocs, preempted)
	}
}

// TestReceivePathAllocatesNothing: a warm Mux takes radio frames through
// dispatch to its handlers — single-fragment packets and a multi-fragment
// one, on two open epochs — and allocates nothing: the reassembler's
// storage, the packet buffers, the verification records and the decoder
// are reused. A handler that keeps an entry's Data reads zeros once
// dispatch has returned, and the frames the caller replays into
// ReceiveFrame, as a benchmark does, are never written.
func TestReceivePathAllocatesNothing(t *testing.T) {
	heard := captureHonest(t)
	frames := make([]airFrame, len(heard))
	for i, h := range heard {
		frames[i] = airFrame{h.from, bytes.Clone(h.payload)}
	}
	s := sim.New(1)
	cfg := DefaultConfig(true)
	cfg.RetxInterval = 0
	m := NewMux(s, sim.NewCPU(s), &SizedAuth{Len: 56, CostVerify: time.Millisecond}, cfg)
	big := bytes.Repeat([]byte{0xD}, 300) // captureHonest's multi-fragment value
	var multi int
	var kept [][]byte
	keeping := true
	read := HandlerFunc(func(_ uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			if len(e.Data) == len(big) {
				if !bytes.Equal(e.Data, big) {
					t.Fatalf("the multi-fragment value reads %x", e.Data)
				}
				multi++
			}
			if keeping && len(e.Data) > 0 {
				kept = append(kept, e.Data) // wrong: aliases the packet buffer
			}
		}
	})
	for e := uint16(0); e < receiveFuzzEpochs; e++ {
		tr := m.Open(e)
		for k := range packet.KindLimit {
			tr.Register(packet.Kind(k), read)
		}
	}
	replay := func() {
		for _, h := range frames {
			m.ReceiveFrame(h.from, h.payload)
			s.Run()
		}
	}
	replay()
	keeping = false
	perReplay, perMulti := m.Stats().LogicalRecv, multi
	if perReplay == 0 || perMulti == 0 || len(kept) == 0 {
		t.Fatalf("%d packets, %d multi-fragment values and %d kept entries dispatched, want some of each", perReplay, perMulti, len(kept))
	}
	for i, d := range kept {
		if !bytes.Equal(d, make([]byte, len(d))) {
			t.Fatalf("Data %d kept past dispatch reads %x, want zeros", i, d)
		}
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, replay); allocs != 0 {
		t.Fatalf("%v allocations per replay of %d radio frames, want none", allocs, len(frames))
	}
	for i := range frames {
		if !bytes.Equal(frames[i].payload, heard[i].payload) {
			t.Fatalf("replayed frame %d was written: %x, heard %x", i, frames[i].payload, heard[i].payload)
		}
	}
	if got, want := m.Stats().LogicalRecv, (runs+2)*perReplay; got != want || multi != (runs+2)*perMulti {
		t.Fatalf("%d packets and %d multi-fragment values dispatched, want %d and %d", got, multi, want, (runs+2)*perMulti)
	}
}

// epochCycle runs one epoch on m: open it, publish k intents, take a
// peer's NACK row for each of rows (kind, phase) pairs and close it.
func epochCycle(m *Mux, epoch uint16, k, rows int) {
	t := m.Open(epoch)
	for i := 0; i < k; i++ {
		t.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: uint8(i % 16), Sub: uint8(i / 16)}, Data: cycleData})
	}
	for i := 0; i < rows; i++ {
		sec := packet.Section{Kind: packet.KindABA, Phase: packet.Phase(i), Nack: packet.BitSet{0x0f}}
		t.heardFrom(0, &sec, false)
	}
	m.Close(epoch)
}

var cycleData = []byte{1}

// TestEpochReusesStore: a warm Mux's epoch allocates what is its own — the
// Transport, its retransmission event and the timer's bound callback — and
// nothing for its intent store, its table of rows or the peers' rows it
// keeps, which the epoch it closed before left grown, whatever number of
// intents and rows it holds.
func TestEpochReusesStore(t *testing.T) {
	const perEpoch = 3
	s := sim.New(1)
	cfg := DefaultConfig(true)
	m := NewMux(s, sim.NewCPU(s), &SizedAuth{Len: 56}, cfg)
	for _, c := range []struct{ k, rows int }{{0, 0}, {1, 1}, {64, 8}, {128, 16}} {
		epoch := uint16(0)
		cycle := func() {
			epoch++
			epochCycle(m, epoch, c.k, c.rows)
		}
		cycle() // grow the store and the rows to this size
		if allocs := testing.AllocsPerRun(20, cycle); allocs != perEpoch {
			t.Errorf("%d intents, %d rows: %v allocations per epoch, want %v", c.k, c.rows, allocs, perEpoch)
		}
	}
}

// TestRecycledRowsHearNoOne: the peers' bitmaps a closed epoch leaves for
// reuse are no row heard. A peer that sent a row in the epoch before and
// none in this one does not hold back a slot the row of the one peer
// heard confirms, and the new epoch's rows reuse the old bitmaps.
func TestRecycledRowsHearNoOne(t *testing.T) {
	s := sim.New(1)
	m := NewMux(s, sim.NewCPU(s), &SizedAuth{Len: 56}, DefaultConfig(true))
	key := IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}
	old := m.Open(1)
	for _, from := range []uint16{1, 2} {
		sec := packet.Section{Kind: key.Kind, Phase: key.Phase, Nack: packet.BitSet{0x02}}
		old.heardFrom(from, &sec, false)
	}
	m.Close(1)
	tr := m.Open(2)
	tr.Update(Intent{IntentKey: key, Data: []byte{1}})
	sec := packet.Section{Kind: key.Kind, Phase: key.Phase, Nack: packet.BitSet{0x01}}
	tr.heardFrom(1, &sec, false)
	if peers := tr.rows[0].peers; len(peers) != 3 || len(peers[2]) != 0 || cap(peers[2]) == 0 {
		t.Fatalf("the new epoch's row keeps the peers' bitmaps %x: want the closed epoch's 3, peer 2's emptied and reused", peers)
	}
	if e := tr.live[0]; e.dirty || e.due != never {
		t.Fatal("the slot peer 1's row confirms did not park: a bitmap left by the closed epoch counted as heard")
	}
}

// TestClosedTransportWritesAlone: the epoch Open makes after a Close starts
// with the closed one's storage, emptied, and what a component still
// holding the closed transport writes to it — an Update, a held intent, a
// NACK row — goes to storage of its own: the new epoch sends only its own
// intents and rows.
func TestClosedTransportWritesAlone(t *testing.T) {
	r := newMuxRig(t, 2, true)
	old := r.muxes[0].Open(1)
	for slot := uint8(0); slot < 8; slot++ {
		old.Update(intentFor(slot))
	}
	old.SetNack(packet.KindRBC, packet.PhaseEcho, packet.BitSet{0x01})
	r.sched.Run()
	r.muxes[0].Close(1)
	next := r.muxes[0].Open(2)
	if cap(next.live) == 0 || cap(next.rows) == 0 {
		t.Fatalf("the new epoch's store (cap %d) and rows (cap %d) do not reuse the closed epoch's", cap(next.live), cap(next.rows))
	}
	var got []uint8
	var nacks []packet.Kind
	r.muxes[1].Open(2).Register(packet.KindRBC, HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			got = append(got, e.Slot)
		}
		if len(sec.Nack) > 0 {
			nacks = append(nacks, sec.Kind)
		}
	}))
	next.Update(intentFor(3))
	for slot := uint8(0); slot < 8; slot++ {
		old.Update(intentFor(slot))
		old.Hold(intentFor(slot + 8))
	}
	old.SetNack(packet.KindRBC, packet.PhaseReady, packet.BitSet{0x03})
	r.sched.Run()
	if !slices.Equal(got, []uint8{3}) || len(nacks) != 0 {
		t.Fatalf("the new epoch sent slots %v and rows of %v, want slot 3 and no row", got, nacks)
	}
	if len(next.live) != 1 || len(next.rows) != 0 {
		t.Fatalf("the new epoch holds %d intents and %d rows, want 1 and 0", len(next.live), len(next.rows))
	}
}

func benchmarkFlush(b *testing.B, batched bool) {
	s, tr, intents := newSendRig(batched, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range intents {
			tr.Update(in)
		}
		s.Run()
	}
}

// BenchmarkFlushBatched refreshes the 32 standing intents and drains the
// scheduler: one logical packet assembled, signed, fragmented and aired.
func BenchmarkFlushBatched(b *testing.B) { benchmarkFlush(b, true) }

// BenchmarkFlushBaseline is the same refresh in baseline mode: 32 logical
// packets, one per intent.
func BenchmarkFlushBaseline(b *testing.B) { benchmarkFlush(b, false) }

// BenchmarkReassemble feeds the three radio frames of one logical packet
// to the reassembler, a new sequence number each time, and puts each
// packet's buffer back.
func BenchmarkReassemble(b *testing.B) {
	const chunk = 240 - fragHeaderLen
	raw := make([]byte, 3*chunk-10)
	var frags [3][]byte
	var r reassembler
	var pool packetBufs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for idx := range frags {
			frags[idx] = appendFragment(frags[idx][:0], raw, 2, uint32(i), idx, len(frags), chunk)
		}
		for idx, frag := range frags {
			out, _, pooled, ok, _ := r.feed(2, frag, &pool)
			if ok != (idx == len(frags)-1) {
				b.Fatalf("packet %d complete after fragment %d", i, idx)
			}
			if pooled {
				pool.put(out)
			}
		}
	}
}
