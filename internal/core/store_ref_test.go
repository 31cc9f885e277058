package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// refStore is the intent store the transport had before it became one
// sorted slice — a map of intents, the live keys in wire order, a map of
// dirty keys, a NACK map — kept here as the oracle the sorted store is
// checked against, and taught the frame rules that came after it: a frame
// carries the dirty intents only, every frame carries every NACK row (in
// the section of its (kind, phase), or in an entry-less one), and a row
// whose bits change is sent even when nothing else is. Where the transport
// calls sendLogical, the oracle hands the sections to send.
//
// flushArmed is the oracle's "the node contends": set by whatever the
// transport flushes on, cleared at the win.
type refStore struct {
	intents map[IntentKey]Intent
	order   []IntentKey
	nacks   map[[2]uint8]packet.BitSet
	dirty   map[IntentKey]bool

	flushArmed, rowsChanged bool
	send                    func([]packet.Section)
}

// keyLess is the ordering the oracle sorts by: the field-by-field
// comparison that IntentKey.wireOrder packs into one integer.
func keyLess(a, b IntentKey) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Slot != b.Slot {
		return a.Slot < b.Slot
	}
	if a.Sub != b.Sub {
		return a.Sub < b.Sub
	}
	return a.Round < b.Round
}

func newRefStore(send func([]packet.Section)) *refStore {
	return &refStore{
		intents: make(map[IntentKey]Intent),
		nacks:   make(map[[2]uint8]packet.BitSet),
		dirty:   make(map[IntentKey]bool),
		send:    send,
	}
}

func (t *refStore) apply(in Intent) {
	if _, ok := t.intents[in.IntentKey]; !ok {
		i := sort.Search(len(t.order), func(i int) bool { return keyLess(in.IntentKey, t.order[i]) })
		t.order = append(t.order, IntentKey{})
		copy(t.order[i+1:], t.order[i:])
		t.order[i] = in.IntentKey
	}
	t.intents[in.IntentKey] = in
	t.dirty[in.IntentKey] = true
	t.flushArmed = true
}

func (t *refStore) Remove(k IntentKey) {
	if _, ok := t.intents[k]; !ok {
		return
	}
	delete(t.intents, k)
	delete(t.dirty, k)
	for i, ok := range t.order {
		if ok == k {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

func (t *refStore) RemoveWhere(pred func(IntentKey) bool) {
	kept := t.order[:0]
	for _, k := range t.order {
		if pred(k) {
			delete(t.intents, k)
			delete(t.dirty, k)
			continue
		}
		kept = append(kept, k)
	}
	t.order = kept
}

func (t *refStore) SetNack(kind packet.Kind, phase packet.Phase, bits packet.BitSet) {
	key := [2]uint8{uint8(kind), uint8(phase)}
	old, had := t.nacks[key]
	t.nacks[key] = bits.Clone()
	if (had || bits.Count() > 0) && !bytes.Equal(old, bits) {
		t.rowsChanged, t.flushArmed = true, true
	}
}

// retransmit is the timer with a zero period: every intent is due.
func (t *refStore) retransmit() {
	for _, k := range t.order {
		if !t.dirty[k] {
			t.dirty[k] = true
			t.flushArmed = true
		}
	}
}

// wake is Mux.Build at the station's win with an idle radio: the node has
// one epoch, so the round-robin always serves it.
func (t *refStore) wake(batched bool) {
	if !t.flushArmed {
		return
	}
	t.flushArmed = false
	if len(t.dirty) == 0 && !t.rowsChanged {
		return
	}
	var keys []IntentKey
	for k := range t.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	clear(t.dirty)
	t.rowsChanged = false
	if batched {
		t.send(t.frame(keys))
		return
	}
	for _, k := range keys {
		t.send(t.frame([]IntentKey{k}))
	}
	if len(keys) == 0 {
		t.send(t.frame(nil))
	}
}

// frame lays out one frame of the given intents: a section per (kind,
// phase) an intent or a NACK row names, in wire order, each with its row.
func (t *refStore) frame(keys []IntentKey) []packet.Section {
	pairs := map[[2]uint8]bool{}
	for p := range t.nacks {
		pairs[p] = true
	}
	for _, k := range keys {
		pairs[[2]uint8{uint8(k.Kind), uint8(k.Phase)}] = true
	}
	var order [][2]uint8
	for p := range pairs {
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i][0] < order[j][0] || order[i][0] == order[j][0] && order[i][1] < order[j][1]
	})
	var secs []packet.Section
	for _, p := range order {
		sec := packet.Section{Kind: packet.Kind(p[0]), Phase: packet.Phase(p[1]), Nack: t.nacks[p], Entries: []packet.Entry{}}
		for _, k := range keys {
			if uint8(k.Kind) == p[0] && uint8(k.Phase) == p[1] {
				in := t.intents[k]
				sec.Entries = append(sec.Entries, packet.Entry{
					Slot: k.Slot, Sub: k.Sub, Round: k.Round, Flags: in.Flags, Data: in.Data,
				})
			}
		}
		secs = append(secs, sec)
	}
	return secs
}

// airLog keeps a copy of every radio frame it hears.
type airLog struct{ frames [][]byte }

func (a *airLog) ReceiveFrame(_ wireless.NodeID, payload []byte) {
	a.frames = append(a.frames, bytes.Clone(payload))
}

// TestIntentStoreMatchesMapModel runs one seeded random script of Update,
// Remove, RemoveWhere, SetNack, retransmission and flush through a real
// transport (with a zero retransmission period, so everything live is due
// whenever the script fires the timer) and through the map-based oracle, in
// both modes, and wants the same radio frames on the air in the same order
// — header, fragment boundaries and every byte.
func TestIntentStoreMatchesMapModel(t *testing.T) {
	for _, batched := range []bool{true, false} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			s := sim.New(11)
			wcfg := wireless.DefaultConfig()
			wcfg.LossProb = 0
			ch := wireless.NewChannel(s, wcfg)
			auth := &SizedAuth{Len: 56}
			cfg := DefaultConfig(batched)
			cfg.Session, cfg.RetxInterval = 9, 0 // the script fires the timer itself
			tr := New(s, sim.NewCPU(s), nil, auth, cfg)
			tr.BindStation(ch.Attach(2, tr))
			ear := &airLog{}
			ch.Attach(0, ear)

			// The oracle's logical packets, fragmented as the transport does.
			var want [][]byte
			sig := auth.Sign()
			seq := uint32(0)
			chunk := wcfg.MaxFrame - fragHeaderLen
			ref := newRefStore(func(secs []packet.Section) {
				raw, err := (&packet.Frame{Sender: 2, Session: 9, Sections: secs, Sig: sig}).Encode()
				if err != nil {
					t.Fatal(err)
				}
				total := fragmentCount(len(raw), chunk)
				for i := 0; i < total; i++ {
					want = append(want, appendFragment(nil, raw, 2, seq, i, total, chunk))
				}
				seq++
			})

			rng := rand.New(rand.NewSource(12))
			kinds := []packet.Kind{packet.KindRBC, packet.KindABA, packet.KindDec}
			phases := []packet.Phase{packet.PhaseInitial, packet.PhaseEcho, packet.PhaseBval, packet.PhaseDecided}
			key := func() IntentKey {
				return IntentKey{
					Kind:  kinds[rng.Intn(len(kinds))],
					Phase: phases[rng.Intn(len(phases))],
					Slot:  uint8(rng.Intn(3)),
					Sub:   uint8(rng.Intn(2)),
					Round: uint16(rng.Intn(3)),
				}
			}
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(20); {
				case op < 10:
					data := make([]byte, rng.Intn(12))
					if rng.Intn(25) == 0 {
						data = make([]byte, 300+rng.Intn(300)) // several fragments
					}
					rng.Read(data)
					in := Intent{IntentKey: key(), Flags: uint8(rng.Intn(4)), Data: data}
					tr.Update(in)
					ref.apply(in)
				case op < 13:
					k := key()
					tr.Remove(k)
					ref.Remove(k)
				case op < 15:
					kind, round := kinds[rng.Intn(len(kinds))], uint16(rng.Intn(3))
					pred := func(k IntentKey) bool { return k.Kind == kind && k.Round <= round }
					tr.RemoveWhere(pred)
					ref.RemoveWhere(pred)
				case op < 16:
					bits := packet.NewBitSet(4)
					bits.Set(rng.Intn(4))
					k := key()
					tr.SetNack(k.Kind, k.Phase, bits)
					ref.SetNack(k.Kind, k.Phase, bits)
				case op < 17:
					tr.retransmit()
					ref.retransmit()
				default:
					// Let the window close and the radio drain.
					s.Run()
					ref.wake(batched)
				}
				if got, want := len(tr.live), len(ref.intents); got != want {
					t.Fatalf("step %d: %d live intents, oracle holds %d", step, got, want)
				}
				if got, want := tr.nDirty, len(ref.dirty); got != want {
					t.Fatalf("step %d: %d dirty intents, oracle holds %d", step, got, want)
				}
			}
			s.Run()
			ref.wake(batched)

			if len(ear.frames) != len(want) {
				t.Fatalf("%d radio frames on the air, oracle sent %d", len(ear.frames), len(want))
			}
			for i := range want {
				if !bytes.Equal(ear.frames[i], want[i]) {
					t.Fatalf("radio frame %d of %d differs:\n got %x\nwant %x", i, len(want), ear.frames[i], want[i])
				}
			}
			if len(want) < 500 {
				t.Fatalf("script put only %d radio frames on the air", len(want))
			}
		})
	}
}
