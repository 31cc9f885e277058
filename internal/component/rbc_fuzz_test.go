package component

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// rbcFuzzSeed is the deployment every FuzzRBCSection input runs in, and the
// one the seed corpus was recorded in.
const rbcFuzzSeed = 33

// rbcPhases are the phases an RBC section can carry.
var rbcPhases = []packet.Phase{packet.PhaseInitial, packet.PhaseEcho, packet.PhaseReady, packet.PhaseRepair}

// rbcSeeds records an honest run, the -small variant if small, and returns
// inputs in FuzzCBCSection's record format (cbcRecord) built from its
// traffic: a value and its votes, a READY quorum before the value (which
// asks for it by the REPAIR row) and the value served by a peer after, an
// equivocated value the READY quorum then contradicts, and served
// fragments of a slot the node does not want, after a delivery and before
// any vote.
func rbcSeeds(f *testing.F, small bool) [][]byte {
	tn := newTestNet(f, rbcFuzzSeed, 0, true)
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = record(tn.envs[i])
	}
	var nodes []*RBC
	for _, env := range tn.envs {
		nodes = append(nodes, NewRBC(env, RBCOptions{Slots: 4, Small: small}))
	}
	for i, v := range nodes {
		v.Propose(i, kernelValue(i, small))
	}
	tn.run(f, 30*time.Minute, func() bool {
		for _, v := range nodes {
			if v.DeliveredCount() < 4 {
				return false
			}
		}
		return true
	})
	op := func(p packet.Phase) byte {
		for i, q := range rbcPhases {
			if q == p {
				return byte(i)
			}
		}
		panic("not an RBC phase")
	}
	from := func(w int, p packet.Phase, slot int) []cbcRecord {
		var out []cbcRecord
		for _, e := range recs[w].entries(p, slot) {
			out = append(out, cbcRecord{op: op(p), from: byte(w), e: e})
		}
		return out
	}
	by := func(w byte, rs []cbcRecord) []cbcRecord {
		rs = append([]cbcRecord(nil), rs...)
		for i := range rs {
			rs[i].from = w
		}
		return rs
	}
	flags := byte(0)
	if small {
		flags = 1
	}
	input := func(rs ...[]cbcRecord) []byte {
		b := []byte{flags}
		for _, r := range rs {
			for _, x := range r {
				b = x.append(b)
			}
		}
		return b
	}
	votes := func(p packet.Phase, slot int) []cbcRecord {
		return append(append(from(0, p, slot), from(1, p, slot)...), from(2, p, slot)...)
	}
	// served has peer w serve slot's fragments as REPAIR entries.
	served := func(w byte, slot int) []cbcRecord {
		rs := by(w, from(slot%3, packet.PhaseInitial, slot))
		for i := range rs {
			rs[i].op = op(packet.PhaseRepair)
		}
		return rs
	}
	other := []cbcRecord{{op: op(packet.PhaseInitial), from: 0, e: packet.Entry{Slot: 0, Flags: 1, Data: []byte("not what the quorum readied")}}}
	later := served(2, 0)
	later[0].op |= 0x80
	return [][]byte{
		input(from(0, packet.PhaseInitial, 0), votes(packet.PhaseEcho, 0), votes(packet.PhaseReady, 0)),
		input(votes(packet.PhaseReady, 1), served(2, 1)),
		input(other, votes(packet.PhaseReady, 0), later),
		input(from(0, packet.PhaseInitial, 0), votes(packet.PhaseEcho, 0), votes(packet.PhaseReady, 0), served(2, 0), served(1, 2)),
		input(served(2, 0), from(0, packet.PhaseInitial, 0), from(1, packet.PhaseReady, 0), from(2, packet.PhaseReady, 0)),
	}
}

// FuzzRBCSection feeds arbitrary INITIAL, ECHO, READY and REPAIR entries,
// to the RBC or, by the input's first byte, RBC-small, of one node whose
// peers run nothing. Entries come from the peers alone: a node never
// hears its own frames. Nothing may panic; a slot delivers only a value
// whose hash has READY votes — each sender's first — from 2f+1 distinct
// nodes, this one's own included; a REPAIR entry for a slot the node's
// REPAIR row does not want changes nothing; and the node, which leads no
// slot here, publishes no INITIAL fragment, and keeps for serving only
// fragments of the value it holds.
func FuzzRBCSection(f *testing.F) {
	f.Add([]byte{})
	for _, small := range []bool{false, true} {
		for _, in := range rbcSeeds(f, small) {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		small := raw[0]%2 == 1
		tn := newTestNet(t, rbcFuzzSeed, 0, true)
		env := tn.envs[3]
		v := NewRBC(env, RBCOptions{Slots: 4, Small: small})
		// readies[slot][w] is the first READY hash from node w, this one's
		// own as it publishes it.
		readies := make([]map[int]Hash8, len(v.slots))
		for i := range readies {
			readies[i] = map[int]Hash8{}
		}
		vote := func(slot, w int, data []byte) {
			if _, voted := readies[slot][w]; !voted && len(data) >= 8 {
				readies[slot][w] = Hash8(data[:8])
			}
		}
		env.T.SetInterceptor(watch(func(in core.Intent) {
			switch in.Phase {
			case packet.PhaseReady:
				vote(int(in.Slot), env.Me, in.Data)
			case packet.PhaseInitial:
				t.Fatalf("slot %d: published INITIAL %d/%d", in.Slot, in.Sub, in.Flags)
			case packet.PhaseRepair:
				if !isFragmentOf(in, [][]byte{v.slots[in.Slot].value}, small, v.frag) {
					t.Fatalf("slot %d: holds REPAIR %d/%d %q, not a fragment of the value held", in.Slot, in.Sub, in.Flags, in.Data)
				}
			}
		}))
		got := map[int][]byte{}
		v.onDeliver = func(slot int, value []byte) {
			if _, again := got[slot]; again {
				t.Fatalf("slot %d delivered twice", slot)
			}
			got[slot] = value
			n := 0
			for _, h := range readies[slot] {
				if h == HashValue(value) {
					n++
				}
			}
			if n < env.Quorum() {
				t.Fatalf("slot %d delivered %q with %d READY votes for it", slot, value, n)
			}
		}
		for _, r := range parseCBCRecords(raw[1:]) {
			if r.op&0x80 != 0 {
				tn.settle(time.Second)
			}
			phase := rbcPhases[int(r.op)%len(rbcPhases)]
			w := int(r.from % 3)
			if phase == packet.PhaseReady && int(r.e.Slot) < len(v.slots) {
				vote(int(r.e.Slot), w, r.e.Data)
			}
			var s *valueSlot
			if int(r.e.Slot) < len(v.slots) {
				s = &v.slots[r.e.Slot].valueSlot
			}
			unwanted(t, &v.dissemination, s, phase, r.e, func() {
				v.HandleSection(uint16(w), packet.Section{Kind: packet.KindRBC, Phase: phase, Entries: []packet.Entry{r.e}})
			})
		}
		tn.settle(time.Minute)
		for slot := range v.slots {
			value, ok := got[slot]
			if ok != v.Delivered(slot) || !bytes.Equal(v.Value(slot), value) {
				t.Fatalf("slot %d: Delivered %v with %q, callback %v with %q", slot, v.Delivered(slot), v.Value(slot), ok, value)
			}
		}
	})
}

// unwanted runs handle, which hands the node entry e of phase for the slot
// whose value state is s (nil: no such slot), and fails the test if e is a
// REPAIR entry for a slot the node's REPAIR row does not want and handle
// changed s.
func unwanted(t *testing.T, d *dissemination, s *valueSlot, phase packet.Phase, e packet.Entry, handle func()) {
	if phase != packet.PhaseRepair || s == nil || d.wanted(int(e.Slot)) {
		handle()
		return
	}
	state := func() string { return fmt.Sprintf("assembled=%v frags=%q", d.held.Get(int(e.Slot)), s.frags) }
	before := state()
	handle()
	if after := state(); after != before {
		t.Fatalf("slot %d: a REPAIR entry it does not want changed its value state from %s to %s", e.Slot, before, after)
	}
}

// isFragmentOf reports whether the intent in carries one of the values,
// whole (small) or as fragment in.Sub of in.Flags of frag bytes.
func isFragmentOf(in core.Intent, values [][]byte, small bool, frag int) bool {
	for _, value := range values {
		if small {
			if bytes.Equal(in.Data, value) {
				return true
			}
			continue
		}
		total := max(1, (len(value)+frag-1)/frag)
		lo, hi := int(in.Sub)*frag, min(len(value), (int(in.Sub)+1)*frag)
		if int(in.Flags) == total && int(in.Sub) < total && bytes.Equal(in.Data, value[lo:hi]) {
			return true
		}
	}
	return false
}
