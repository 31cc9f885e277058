package component

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// cbcFuzzSeed is the deployment every FuzzCBCSection input runs in, and
// the one the seed corpus was recorded in, so recorded shares and
// certificates verify.
const cbcFuzzSeed = 31

// cbcPhases are the phases a CBC section can carry.
var cbcPhases = []packet.Phase{packet.PhaseInitial, packet.PhaseEcho, packet.PhaseFinish, packet.PhaseRepair}

// cbcRecord is one entry of a FuzzCBCSection input. On the wire of the
// input it is op, from, slot, sub, flags, a big-endian uint16 length and
// that many bytes of data; op's low two bits pick the phase from
// cbcPhases, and its top bit lets a second of virtual time pass first, so
// the charged verifications of earlier entries land in between.
type cbcRecord struct {
	op, from byte
	e        packet.Entry
}

func (r cbcRecord) append(b []byte) []byte {
	b = append(b, r.op, r.from, r.e.Slot, r.e.Sub, r.e.Flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.e.Data)))
	return append(b, r.e.Data...)
}

func parseCBCRecords(raw []byte) []cbcRecord {
	var out []cbcRecord
	for len(raw) >= 7 {
		r := cbcRecord{op: raw[0], from: raw[1], e: packet.Entry{Slot: raw[2], Sub: raw[3], Flags: raw[4]}}
		n := int(binary.BigEndian.Uint16(raw[5:7]))
		raw = raw[7:]
		if n > len(raw) {
			n = len(raw)
		}
		r.e.Data, raw = raw[:n], raw[n:]
		out = append(out, r)
	}
	return out
}

// cbcSeeds records an honest run of one wire kind and returns inputs built
// from its traffic: a value and its ECHO shares, a certificate before its
// value, a certificate after a value it does not match, served fragments
// of a slot the node does not want, a forged served value ahead of the
// genuine one, and, around the bare
// ECHO shares an honest run sends, full ones: genuine, forged, and after
// a corrupted bare share has failed a combination.
func cbcSeeds(f *testing.F, ki int) [][]byte {
	k := kernelKinds[ki]
	tn := newTestNet(f, cbcFuzzSeed, 0, true)
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = record(tn.envs[i])
	}
	nodes := newKernel(tn, k.kind, k.small)
	for i, v := range nodes {
		v.Propose(i, kernelValue(i, k.small))
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
		for i, q := range cbcPhases {
			if q == p {
				return byte(i)
			}
		}
		panic("not a CBC phase")
	}
	from := func(w int, p packet.Phase, slot int) []cbcRecord {
		var out []cbcRecord
		for _, e := range recs[w].entries(p, slot) {
			out = append(out, cbcRecord{op: op(p), from: byte(w), e: e})
		}
		return out
	}
	input := func(rs ...[]cbcRecord) []byte {
		b := []byte{byte(ki)}
		for _, r := range rs {
			for _, x := range r {
				b = x.append(b)
			}
		}
		return b
	}
	// later makes a run of records wait a second, for the verification
	// of what came before; by has peer w send them.
	later := func(rs []cbcRecord) []cbcRecord {
		rs = append([]cbcRecord(nil), rs...)
		rs[0].op |= 0x80
		return rs
	}
	by := func(w byte, rs []cbcRecord) []cbcRecord {
		rs = append([]cbcRecord(nil), rs...)
		for i := range rs {
			rs[i].from = w
		}
		return rs
	}
	// full has peer w send its share of a slot in full, the way it goes
	// once the tally turns to proofs; forged has it send its bare share
	// flagged full, with a made-up proof behind it.
	full := func(w byte, slot int) []cbcRecord {
		sh := nodes[w].slots[slot].cert.mine.share
		return []cbcRecord{{op: op(packet.PhaseEcho), from: w, e: packet.Entry{Slot: byte(slot), Sub: w, Flags: proofFlag, Data: EncodeSigShare(tn.envs[w].Suite.TSHigh, sh)}}}
	}
	forged := func(w byte, slot int) []cbcRecord {
		sh := *nodes[w].slots[slot].cert.mine.share
		sh.C, sh.Z = big.NewInt(7), big.NewInt(9)
		return []cbcRecord{{op: op(packet.PhaseEcho), from: w, e: packet.Entry{Slot: byte(slot), Sub: w, Flags: proofFlag, Data: EncodeSigShare(tn.envs[w].Suite.TSHigh, &sh)}}}
	}
	// corrupt has peer w send a bare share of a slot whose X is off.
	corrupt := func(w byte, slot int) []cbcRecord {
		rs := from(int(w), packet.PhaseEcho, slot)[:1]
		rs[0].e.Data = append([]byte(nil), rs[0].e.Data...)
		rs[0].e.Data[len(rs[0].e.Data)-1] ^= 1
		return rs
	}
	finish := EncodeFinish(nodes[0].slots[0].certHash, nodes[0].slots[0].cert.value)
	finish0 := []cbcRecord{{op: op(packet.PhaseFinish) | 0x80, from: 1, e: packet.Entry{Slot: 0, Data: finish}}}
	other := []cbcRecord{{op: op(packet.PhaseInitial), from: 0, e: packet.Entry{Slot: 0, Flags: 1, Data: []byte("not what the quorum signed")}}}
	// served has peer w send records as the fragments it serves.
	served := func(w byte, rs []cbcRecord) []cbcRecord {
		rs = by(w, rs)
		for i := range rs {
			rs[i].op = op(packet.PhaseRepair)
		}
		return rs
	}
	// Every input once as it is and once checked by fuzzValid. The
	// recorded values of slots 0 and 1 meet all three verdicts: in the
	// fragmented kinds slot 0's is refused and slot 1's waits, in the
	// small kind slot 0's is accepted and slot 1's refused.
	checked := func(in []byte) []byte { return append([]byte{in[0] + byte(len(kernelKinds))}, in[1:]...) }
	inputs := [][]byte{
		input(from(0, packet.PhaseInitial, 0), from(0, packet.PhaseEcho, 0), from(1, packet.PhaseEcho, 0), from(2, packet.PhaseEcho, 0)),
		input(from(1, packet.PhaseEcho, 1), from(2, packet.PhaseEcho, 1), from(1, packet.PhaseInitial, 1)),
		input(finish0, from(0, packet.PhaseInitial, 0)),
		input(other, finish0, later(from(0, packet.PhaseInitial, 0))),
		input(from(0, packet.PhaseInitial, 0), served(2, from(1, packet.PhaseInitial, 1)), finish0),
		input(finish0, later(served(2, other)), later(served(2, from(0, packet.PhaseInitial, 0)))),
		input(from(0, packet.PhaseInitial, 0), full(0, 0), full(1, 0), full(2, 0)),
		input(from(0, packet.PhaseInitial, 0), forged(1, 0), from(0, packet.PhaseEcho, 0), from(2, packet.PhaseEcho, 0), later(full(1, 0))),
		input(from(0, packet.PhaseInitial, 0), corrupt(1, 0), from(0, packet.PhaseEcho, 0), later(from(2, packet.PhaseEcho, 0)), later(full(0, 0)), full(1, 0), full(2, 0)),
		input(from(1, packet.PhaseInitial, 1), from(0, packet.PhaseEcho, 1), later(from(2, packet.PhaseEcho, 1))),
	}
	for _, in := range inputs[:len(inputs):len(inputs)] {
		inputs = append(inputs, checked(in))
	}
	return inputs
}

// fuzzValid is the validity predicate of a checked FuzzCBCSection input:
// a value whose first byte is odd is refused, one whose first byte is
// 2 mod 4 waits until lifted, and every other value is accepted.
func fuzzValid(value []byte, lifted bool) Verdict {
	switch {
	case len(value) == 0:
		return Accept
	case value[0]%2 == 1:
		return Refuse
	case value[0]%4 == 2 && !lifted:
		return Wait
	}
	return Accept
}

// FuzzCBCSection feeds arbitrary entries of every CBC phase, on each of
// the kernel's three wire kinds, to one node whose peers run nothing; the
// input's first byte picks the kind and whether the node checks values
// with fuzzValid, whose waiting values it lifts and rechecks at every
// passing of time. Nothing may panic, a slot delivers only with a
// certificate that verifies under the threshold key over the delivered
// value's hash, no slot's tally holds a certificate that does not verify
// over the hash it certifies, delivered or not, the node publishes no ECHO
// share of a value its predicate refused, a REPAIR entry for a slot the
// node's REPAIR row does not want changes nothing, and the node keeps for
// serving only fragments of the value it holds.
func FuzzCBCSection(f *testing.F) {
	f.Add([]byte{})
	for ki := range kernelKinds {
		for _, in := range cbcSeeds(f, ki) {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		k := kernelKinds[int(raw[0])%len(kernelKinds)]
		tn := newTestNet(t, cbcFuzzSeed, 0, true)
		env := tn.envs[3]
		opts := CBCOptions{Kind: k.kind, Slots: 4, Small: k.small}
		lifted := false
		refused := map[Hash8]bool{}
		if int(raw[0])/len(kernelKinds)%2 == 1 {
			opts.Valid = func(_ int, value []byte) Verdict {
				verdict := fuzzValid(value, lifted)
				if verdict == Refuse {
					refused[HashValue(value)] = true
				}
				return verdict
			}
		}
		v := NewCBC(env, opts)
		env.T.SetInterceptor(watch(func(in core.Intent) {
			if in.Phase == packet.PhaseRepair && !isFragmentOf(in, [][]byte{v.slots[in.Slot].value}, k.small, v.frag) {
				t.Fatalf("slot %d: holds REPAIR %d/%d %q, not a fragment of the value held", in.Slot, in.Sub, in.Flags, in.Data)
			}
			if in.Phase != packet.PhaseEcho || in.Flags&certFlag != 0 {
				return
			}
			subject := v.slots[in.Slot].cert.subject
			if refused[Hash8(subject[len(subject)-len(Hash8{}):])] {
				t.Fatalf("slot %d: published an ECHO share of a refused value", in.Slot)
			}
		}))
		lift := func() {
			lifted = true
			v.Recheck()
		}
		type delivery struct{ value, cert []byte }
		got := map[int]delivery{}
		v.onDeliver = func(slot int, value, cert []byte) {
			if _, again := got[slot]; again {
				t.Fatalf("slot %d delivered twice", slot)
			}
			got[slot] = delivery{value, cert}
		}
		for _, r := range parseCBCRecords(raw[1:]) {
			if r.op&0x80 != 0 {
				lift()
				tn.settle(time.Second)
			}
			phase := cbcPhases[int(r.op)%len(cbcPhases)]
			var s *valueSlot
			if int(r.e.Slot) < len(v.slots) {
				s = &v.slots[r.e.Slot].valueSlot
			}
			unwanted(t, &v.dissemination, s, phase, r.e, func() {
				v.HandleSection(uint16(r.from%4), packet.Section{Kind: k.kind, Phase: phase, Entries: []packet.Entry{r.e}})
			})
		}
		lift()
		tn.settle(time.Minute)
		for slot, s := range v.slots {
			if s.cert.done {
				msg := v.shareMessage(slot, s.certHash)
				if err := env.Suite.TSHigh.Verify(msg, &threshsig.Signature{S: bigFromBytes(s.cert.value)}); err != nil {
					t.Fatalf("slot %d settled on a certificate that does not verify: %v", slot, err)
				}
			}
			d, ok := got[slot]
			if ok != v.Delivered(slot) {
				t.Fatalf("slot %d: Delivered %v, callback %v", slot, v.Delivered(slot), ok)
			}
			if !ok {
				continue
			}
			if !bytes.Equal(v.Value(slot), d.value) {
				t.Fatalf("slot %d: Value %q, delivered %q", slot, v.Value(slot), d.value)
			}
			msg := v.shareMessage(slot, HashValue(d.value))
			if err := env.Suite.TSHigh.Verify(msg, &threshsig.Signature{S: bigFromBytes(d.cert)}); err != nil {
				t.Fatalf("slot %d delivered %q with a certificate that does not verify over it: %v", slot, d.value, err)
			}
		}
	})
}
