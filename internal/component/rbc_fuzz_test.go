package component

import (
	"bytes"
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
// asks for it by repair) and the value from a peer after, an equivocated
// value the READY quorum then contradicts, and repair requests after a
// delivery.
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
	repair := []cbcRecord{{op: op(packet.PhaseRepair), from: 2, e: packet.Entry{Slot: 0, Data: packet.NewBitSet(maxFragments + 1)}}}
	other := []cbcRecord{{op: op(packet.PhaseInitial), from: 0, e: packet.Entry{Slot: 0, Flags: 1, Data: []byte("not what the quorum readied")}}}
	later := append([]cbcRecord(nil), by(2, from(0, packet.PhaseInitial, 0))...)
	later[0].op |= 0x80
	return [][]byte{
		input(from(0, packet.PhaseInitial, 0), votes(packet.PhaseEcho, 0), votes(packet.PhaseReady, 0)),
		input(votes(packet.PhaseReady, 1), by(2, from(1, packet.PhaseInitial, 1))),
		input(other, votes(packet.PhaseReady, 0), later),
		input(from(0, packet.PhaseInitial, 0), votes(packet.PhaseEcho, 0), votes(packet.PhaseReady, 0), repair, repair),
		input(from(0, packet.PhaseInitial, 0), repair, from(1, packet.PhaseReady, 0), from(2, packet.PhaseReady, 0)),
	}
}

// FuzzRBCSection feeds arbitrary INITIAL, ECHO, READY and REPAIR entries,
// to the RBC or, by the input's first byte, RBC-small, of one node whose
// peers run nothing. Entries come from the peers alone: a node never
// hears its own frames. Nothing may panic; a slot delivers only a value
// whose hash has READY votes — each sender's first — from 2f+1 distinct
// nodes, this one's own included; and a repair entry never makes the node
// publish anything: the answer it schedules puts up INITIAL fragments of a
// value the node held, and nothing else.
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
		// held[slot] is every value the slot held after some entry;
		// inRecord is the phase of the entry being handled (0 between).
		held := make([][][]byte, len(v.slots))
		var inRecord packet.Phase
		env.T.SetInterceptor(watch(func(in core.Intent) {
			switch {
			case inRecord == packet.PhaseRepair:
				t.Fatalf("a repair entry made the node publish phase %d slot %d", in.Phase, in.Slot)
			case in.Phase == packet.PhaseReady:
				vote(int(in.Slot), env.Me, in.Data)
			case in.Phase == packet.PhaseInitial:
				if inRecord != 0 || !isFragmentOf(in, held[in.Slot], small, v.frag) {
					t.Fatalf("slot %d: published INITIAL %d/%d %q, not a fragment of a value held", in.Slot, in.Sub, in.Flags, in.Data)
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
			inRecord = phase
			v.HandleSection(uint16(w), packet.Section{Kind: packet.KindRBC, Phase: phase, Entries: []packet.Entry{r.e}})
			inRecord = 0
			for slot, s := range v.slots {
				if n := len(held[slot]); s.assembled && (n == 0 || !bytes.Equal(held[slot][n-1], s.value)) {
					held[slot] = append(held[slot], s.value)
				}
			}
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

// isFragmentOf reports whether the INITIAL intent in carries one of the
// values, whole (small) or as fragment in.Sub of in.Flags of frag bytes.
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
