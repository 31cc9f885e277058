package component

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/packet"
)

// cachinFuzzDeal is the seed the suites of every FuzzCachinABASection
// input are dealt from, so that the coin shares and certificates
// coinMaterial makes from them verify; the sides' schedulers run from
// cachinFuzzSeed.
const (
	cachinFuzzDeal = 77
	cachinFuzzSeed = 5
)

// An input of FuzzCachinABASection is a mode byte and a sequence of
// abaRecords. The mode's bit 0 picks the CP coin (else SC), bit 1 the
// shared coin, and bit 2 peers that lost state, whose sections come
// through the transport.
const (
	modeFlip byte = 1 << iota
	modeShared
	modeRegressed
)

// abaRecord is one section of a FuzzCachinABASection input, with one
// entry. On the wire of the input it is op, from, slot, round, arg, a
// length byte and that many bytes of data.
//
// op's low two bits pick the phase (BVAL, AUX, SHARE, DECIDED); bit 7 lets
// a second of virtual time pass first, and bit 6 starts the next
// instance not yet started, with estimate bit 5, before the section
// comes. The sender is peer 1 + from mod 3. A BVAL, AUX or DECIDED entry
// is for slot mod 4 — 3 is no instance — and round refRounds[round mod
// len], and carries data. A SHARE entry is for the coin of slot mod 4 —
// 3 is the shared coin — and round mod 8, with flags arg>>4 & 3, and
// arg's low three bits pick what it carries: 0 its sender's genuine
// share, full, 1 the coin's certificate, 2 another peer's genuine share,
// 3 the genuine share with its last byte flipped, 4 the first half of
// it, else data. coinMaterial has shares of rounds 1–6: one of rounds 0
// and 7 is empty.
type abaRecord struct {
	op, from, slot, round, arg byte
	data                       []byte
}

func (r abaRecord) append(b []byte) []byte {
	b = append(b, r.op, r.from, r.slot, r.round, r.arg, byte(len(r.data)))
	return append(b, r.data...)
}

func parseABARecords(raw []byte) []abaRecord {
	var out []abaRecord
	for len(raw) >= 6 {
		r := abaRecord{op: raw[0], from: raw[1], slot: raw[2], round: raw[3], arg: raw[4]}
		n := min(int(raw[5]), len(raw)-6)
		r.data, raw = raw[6:6+n], raw[6+n:]
		out = append(out, r)
	}
	return out
}

// section is the section r sends from peer from, drawing genuine shares
// and certificates from shares.
func (r abaRecord) section(from uint16, shares map[coinID][]byte) packet.Section {
	phase := []packet.Phase{packet.PhaseBval, packet.PhaseAux, packet.PhaseShare, packet.PhaseDecided}[r.op&3]
	e := packet.Entry{Slot: r.slot % 4, Round: refRounds[int(r.round)%len(refRounds)], Data: r.data}
	if phase == packet.PhaseShare {
		if e.Slot == 3 {
			e.Slot = sharedSlot
		}
		e.Round, e.Sub, e.Flags = uint16(r.round%8), uint8(from), r.arg>>4&3
		genuine := shares[coinID{int(from), e.Slot, e.Round}]
		switch r.arg & 7 {
		case 0:
			e.Data = genuine
		case 1:
			e.Data = shares[coinID{0, e.Slot, e.Round}]
		case 2:
			e.Data = shares[coinID{int(from)%3 + 1, e.Slot, e.Round}]
		case 3:
			e.Data = bytes.Clone(genuine)
			if len(e.Data) > 0 {
				e.Data[len(e.Data)-1] ^= 1
			}
		case 4:
			e.Data = genuine[:len(genuine)/2]
		}
	}
	return packet.Section{Kind: packet.KindABA, Phase: phase, Entries: []packet.Entry{e}}
}

// cachinSeeds are inputs drawn as TestCachinABAMatchesMapModel draws its
// stream, one per mode of that test — shared coin or per-slot, peers live
// or ones that lost state — under each coin: the three instances start
// one by one, and the sections are BVALs, AUX votes and coin shares —
// mostly genuine, now and then garbage or a certificate — with DECIDED
// claims coming late.
func cachinSeeds() [][]byte {
	var out [][]byte
	for mode := byte(0); mode < 8; mode++ {
		rng := rand.New(rand.NewSource(200 + int64(mode)))
		b := []byte{mode}
		for step := 0; step < 400; step++ {
			r := abaRecord{from: byte(rng.Intn(3)), slot: byte(rng.Intn(4)), round: byte(rng.Intn(len(refRounds)))}
			if step%4 == 3 {
				r.op |= 0x80
			}
			if step%80 == 0 && step/80 < 3 {
				r.op |= 0x40 | byte(rng.Intn(2))<<5
			}
			switch p := rng.Intn(10); {
			case p < 4:
				r.data = []byte{uint8(1 + rng.Intn(3))} // BVAL(0), BVAL(1) or both
			case p < 7:
				r.op |= 1
				r.data = []byte{uint8(rng.Intn(2))}
			case p < 9 || step < 300:
				r.op |= 2
				r.round = byte(1 + rng.Intn(6))
				if mode&modeShared != 0 {
					r.slot = 3
				}
				switch rng.Intn(10) {
				case 0:
					r.arg, r.data = 5, []byte("not a coin share")
				case 1:
					r.arg = 1 | certFlag<<4
				case 2:
					r.arg = 3 | proofFlag<<4
				}
			default:
				r.op |= 3
				r.data = []byte{uint8(rng.Intn(2))}
			}
			b = r.append(b)
		}
		out = append(out, b)
	}
	return out
}

// FuzzCachinABASection feeds arbitrary BVAL, AUX, SHARE (bare, full or a
// certificate) and DECIDED entries from peers 1–3 to node 0's CachinABA
// and, side by side, to its map-based oracle (refCachinABA), under both
// coins, shared and per slot, with the peers live or ones that lost
// state. Neither side may panic, and after every section they agree on
// everything they published and decided, on every instance's round,
// estimate and halt, on the rejections counted and on the CPU time
// charged.
func FuzzCachinABASection(f *testing.F) {
	suites, err := crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(cachinFuzzDeal)))
	if err != nil {
		f.Fatal(err)
	}
	sig, flip := coinMaterial(f, suites, SigCoin), coinMaterial(f, suites, FlipCoin)
	for _, seed := range cachinSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		mode, recs := raw[0], parseABARecords(raw[1:])
		if mode&modeFlip != 0 {
			cachinFuzzRun(t, suites[0], FlipCoin, flip, mode, recs)
		} else {
			cachinFuzzRun(t, suites[0], SigCoin, sig, mode, recs)
		}
	})
}

// cachinFuzzRun runs one FuzzCachinABASection input under one coin.
func cachinFuzzRun[S, V any](t *testing.T, suite *crypto.Suite, coin func(*Env) Coin[S, V], shares map[coinID][]byte, mode byte, recs []abaRecord) {
	dense, ref := newABASide(cachinFuzzSeed, suite), newABASide(cachinFuzzSeed, suite)
	opts := CachinOptions{Slots: 3, SharedCoin: mode&modeShared != 0}
	opts.OnDecide = dense.decided
	a := NewCachinABA(dense.env, coin(dense.env), opts)
	opts.OnDecide = ref.decided
	r := newRefCachinABA(ref.env, coin(ref.env), opts)
	if mode&modeRegressed != 0 {
		dense.regress()
		ref.regress()
	}
	started := 0
	for step, rec := range recs {
		if rec.op&0x80 != 0 {
			dense.sched.RunFor(time.Second)
			ref.sched.RunFor(time.Second)
		}
		if rec.op&0x40 != 0 && started < len(a.slots) {
			v := rec.op&0x20 != 0
			a.Input(started, v)
			r.Input(started, v)
			started++
		}
		from := uint16(1 + int(rec.from)%3)
		sec := rec.section(from, shares)
		if mode&modeRegressed != 0 {
			dense.deliver(from, sec)
			ref.deliver(from, sec)
		} else {
			a.HandleSection(from, sec)
			r.HandleSection(from, sec)
		}
		sameABA(t, step, fmt.Sprintf("phase %d from %d", sec.Phase, from), a, r, dense, ref)
	}
	dense.sched.RunFor(time.Minute)
	ref.sched.RunFor(time.Minute)
	sameABA(t, len(recs), "the last minute", a, r, dense, ref)
}

// sameABA fails the test where a and its oracle r differ: in their logs,
// in an instance's decision, round, estimate or halt, in the rejections
// their transports counted or in the CPU time their nodes were charged.
func sameABA[S, V any](t *testing.T, step int, what string, a *CachinABA[S, V], r *refCachinABA[S, V], dense, ref *abaSide) {
	t.Helper()
	sameSoFar(t, step, what, dense, ref)
	for slot, s := range a.slots {
		if s == nil {
			s = new(abaSlot) // no Input yet: no record, the oracle's zero one
		}
		o := r.slots[slot]
		d, od := a.Decided(slot), r.Decided(slot)
		if (d == nil) != (od == nil) || d != nil && *d != *od {
			t.Fatalf("step %d (%s): slot %d decided %v, oracle %v", step, what, slot, d, od)
		}
		if halted := a.halted.Get(slot); s.round != o.round || s.est != o.est || halted != o.halted {
			t.Fatalf("step %d (%s): slot %d at round %d est %v halted %v, oracle round %d est %v halted %v", step, what, slot,
				s.round, s.est, halted, o.round, o.est, o.halted)
		}
	}
	if d, o := dense.env.T.Stats().Rejected, ref.env.T.Stats().Rejected; d != o {
		t.Fatalf("step %d (%s): %d rejections, oracle %d", step, what, d, o)
	}
	if d, o := dense.env.CPU.BusyTotal(), ref.env.CPU.BusyTotal(); d != o {
		t.Fatalf("step %d (%s): charged %v, oracle %v", step, what, d, o)
	}
}

// An input of FuzzBrachaABASection is a mode byte, of which only bit 2
// counts (modeRegressed: peers that lost state), and a sequence of
// abaRecords. op's low two bits pick the phase (VOTE1, VOTE2, VOTE3,
// DECIDED); bits 7, 6 and 5 are as in FuzzCachinABASection. The sender is
// peer 1 + from mod 3, and the entry is for slot mod 4 — 3 is no
// instance — and round refRounds[round mod len], and carries data; arg is
// not read.
const brachaFuzzSeed = 5

// brachaSection is the section r sends.
func (r abaRecord) brachaSection() packet.Section {
	phase := []packet.Phase{packet.PhaseVote1, packet.PhaseVote2, packet.PhaseVote3, packet.PhaseDecided}[r.op&3]
	e := packet.Entry{Slot: r.slot % 4, Round: refRounds[int(r.round)%len(refRounds)], Data: r.data}
	return packet.Section{Kind: packet.KindABA, Phase: phase, Entries: []packet.Entry{e}}
}

// brachaSeeds are inputs drawn as TestBrachaABAMatchesMapModel draws its
// stream, two with the peers live and two with peers that lost state: the
// three instances start one by one, and the sections are vote-RBC views
// that mostly say what most votes of their phase say — now and then
// another vote, ⊥, none, a value past them or a short view — with
// DECIDED claims coming late.
func brachaSeeds() [][]byte {
	var out [][]byte
	for i, mode := range []byte{0, 0, modeRegressed, modeRegressed} {
		rng := rand.New(rand.NewSource(300 + int64(i)))
		b := []byte{mode}
		for step := 0; step < 400; step++ {
			r := abaRecord{from: byte(rng.Intn(3)), slot: byte(rng.Intn(4)), round: byte(rng.Intn(len(refRounds)))}
			if step%4 == 3 {
				r.op |= 0x80
			}
			if step%80 == 0 && step/80 < 3 {
				r.op |= 0x40 | byte(rng.Intn(2))<<5
			}
			if step >= 300 && rng.Intn(6) == 0 {
				r.op |= 3
				r.data = []byte{uint8(rng.Intn(2))}
				b = r.append(b)
				continue
			}
			ph := rng.Intn(3)
			r.op |= byte(ph)
			lean := uint8(int(r.slot)+int(refRounds[r.round])+ph) % 2
			r.data = make([]byte, 1+2*4)
			for i := range r.data {
				switch p := rng.Intn(20); {
				case p < 11:
					r.data[i] = lean
				case p < 19:
					r.data[i] = uint8(rng.Intn(4)) // 0, 1, ⊥, none
				default:
					r.data[i] = 4 + uint8(rng.Intn(250))
				}
			}
			if rng.Intn(30) == 0 {
				r.data = r.data[:rng.Intn(len(r.data))]
			}
			b = r.append(b)
		}
		out = append(out, b)
	}
	return out
}

// FuzzBrachaABASection feeds arbitrary vote-RBC views of every phase and
// DECIDED claims from peers 1–3 to node 0's BrachaABA and, side by side,
// to its map-based oracle (refBrachaABA), with the peers live or ones that
// lost state. Neither side may panic, and after every section they agree
// on everything they published and decided and on every instance's round,
// estimate and halt.
func FuzzBrachaABASection(f *testing.F) {
	for _, seed := range brachaSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		mode, recs := raw[0], parseABARecords(raw[1:])
		dense, ref := newABASide(brachaFuzzSeed, nil), newABASide(brachaFuzzSeed, nil)
		a := NewBrachaABA(dense.env, BrachaOptions{Slots: 3, OnDecide: dense.decided})
		r := newRefBrachaABA(ref.env, BrachaOptions{Slots: 3, OnDecide: ref.decided})
		if mode&modeRegressed != 0 {
			dense.regress()
			ref.regress()
		}
		started := 0
		for step, rec := range recs {
			if rec.op&0x80 != 0 {
				dense.sched.RunFor(time.Second)
				ref.sched.RunFor(time.Second)
			}
			if rec.op&0x40 != 0 && started < len(a.slots) {
				v := rec.op&0x20 != 0
				a.Input(started, v)
				r.Input(started, v)
				started++
			}
			from := uint16(1 + int(rec.from)%3)
			sec := rec.brachaSection()
			if mode&modeRegressed != 0 {
				dense.deliver(from, sec)
				ref.deliver(from, sec)
			} else {
				a.HandleSection(from, sec)
				r.HandleSection(from, sec)
			}
			sameBracha(t, step, fmt.Sprintf("phase %d from %d", sec.Phase, from), a, r, dense, ref)
		}
		dense.sched.RunFor(time.Minute)
		ref.sched.RunFor(time.Minute)
		sameBracha(t, len(recs), "the last minute", a, r, dense, ref)
	})
}

// sameBracha fails the test where a and its oracle r differ: in their
// logs, or in an instance's decision, round, estimate or halt.
func sameBracha(t *testing.T, step int, what string, a *BrachaABA, r *refBrachaABA, dense, ref *abaSide) {
	t.Helper()
	sameSoFar(t, step, what, dense, ref)
	for slot, s := range a.slots {
		if s == nil {
			s = new(brachaSlot) // no Input yet: no record, the oracle's zero one
		}
		o := r.slots[slot]
		d, od := a.Decided(slot), r.Decided(slot)
		if (d == nil) != (od == nil) || d != nil && *d != *od {
			t.Fatalf("step %d (%s): slot %d decided %v, oracle %v", step, what, slot, d, od)
		}
		if halted := a.halted.Get(slot); s.round != o.round || s.est != o.est || halted != o.halted {
			t.Fatalf("step %d (%s): slot %d at round %d est %v halted %v, oracle round %d est %v halted %v", step, what, slot,
				s.round, s.est, halted, o.round, o.est, o.halted)
		}
	}
}
