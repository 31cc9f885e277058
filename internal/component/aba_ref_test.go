package component

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// abaSide is node 0 of a 4-node group alone on a channel of its own, with
// a log of everything a binary agreement running there does that a peer or
// the protocol above could see: every intent it publishes, in order, byte
// for byte, and every decision. The reference-model tests build two from
// one seed — the component on one, its map-based oracle on the other —
// feed both the same sections and want the same log.
type abaSide struct {
	sched *sim.Scheduler
	env   *Env
	log   []string
	seq   uint32 // the fragment sequence number of the last packet delivered
}

func newABASide(seed int64, suite *crypto.Suite) *abaSide {
	s := &abaSide{sched: sim.New(seed)}
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	ch := wireless.NewChannel(s.sched, cfg)
	cpu := sim.NewCPU(s.sched)
	tr := core.New(s.sched, cpu, nil, &core.SizedAuth{Len: 56}, core.DefaultConfig(true))
	tr.BindStation(ch.Attach(0, tr))
	tr.SetInterceptor(s)
	s.env = &Env{
		N: 4, F: 1, Me: 0, Session: 42, Suite: suite,
		T: tr, CPU: cpu, Sched: s.sched,
		Rand: rand.New(rand.NewSource(seed)),
	}
	return s
}

// Outbound implements core.Interceptor: log the intent, pass it on.
func (s *abaSide) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	s.log = append(s.log, fmt.Sprintf("publish %+v flags=%d %x", in.IntentKey, in.Flags, in.Data))
	return []core.Intent{in}
}

// deliver hands sec to the side's transport as the next packet of peer
// from, as the radio would: the transport dispatches it to the component,
// keeps its row, and, if from has lost state, takes its entries as
// requests for what the side has parked.
func (s *abaSide) deliver(from uint16, sec packet.Section) {
	raw, err := (&packet.Frame{Sender: from, Sections: []packet.Section{sec}, Sig: make([]byte, 56)}).Encode()
	if err != nil {
		panic(err)
	}
	s.seq++
	frag := binary.BigEndian.AppendUint16(nil, from)
	frag = binary.BigEndian.AppendUint32(frag, s.seq)
	s.env.T.ReceiveFrame(wireless.NodeID(from), append(append(frag, 0, 1), raw...))
}

// regress shows peers 1 to 3 losing a bit their rows had shown, so the
// side's transport marks each as a peer that lost its state.
func (s *abaSide) regress() {
	for w := uint16(1); w < 4; w++ {
		for _, bits := range []packet.BitSet{{1}, {0}} {
			s.deliver(w, packet.Section{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Nack: bits})
		}
	}
	s.sched.RunFor(time.Second)
}

func (s *abaSide) decided(slot int, v bool) {
	s.log = append(s.log, fmt.Sprintf("decide slot %d = %v", slot, v))
}

// sameSoFar fails the test at the first log entry the two sides differ in.
func sameSoFar(t *testing.T, step int, what string, dense, ref *abaSide) {
	t.Helper()
	for i := 0; i < len(dense.log) && i < len(ref.log); i++ {
		if dense.log[i] != ref.log[i] {
			t.Fatalf("step %d (%s): entry %d is\n  %s\noracle has\n  %s", step, what, i, dense.log[i], ref.log[i])
		}
	}
	if len(dense.log) != len(ref.log) {
		t.Fatalf("step %d (%s): %d log entries, oracle has %d", step, what, len(dense.log), len(ref.log))
	}
}

// sameTraffic compares what the two transports put on the air: pruning an
// intent is invisible to the interceptor, but not to the frames sent.
func sameTraffic(t *testing.T, dense, ref *abaSide) {
	t.Helper()
	dense.sched.RunFor(time.Minute)
	ref.sched.RunFor(time.Minute)
	d, r := dense.env.T.Stats(), ref.env.T.Stats()
	// Rejections differ by design: the oracle is not shown the senders the
	// component rejects, and it verifies (and rejects) coin shares for slots
	// and rounds that do not exist, which the component drops unread.
	d.Rejected, r.Rejected = 0, 0
	if d != r {
		t.Fatalf("transport counters %+v, oracle's %+v", d, r)
	}
	if d.LogicalSent == 0 {
		t.Fatal("nothing was sent")
	}
}

// Rounds the random streams mention: a few low ones the instances really
// reach, and the two either side of the cap on what a peer may mention.
var refRounds = []uint16{1, 1, 1, 2, 2, 3, 3, 4, 5, roundCap, roundCap + 1}

// randomFrom draws a sender: one of the four nodes, or now and then an id
// beyond them, as SizedAuth would let through.
func randomFrom(rng *rand.Rand) uint16 {
	if rng.Intn(12) == 0 {
		return uint16(4 + rng.Intn(3))
	}
	return uint16(rng.Intn(4))
}

// decidedSection is a random DECIDED section: claims for slots in and out
// of range, the odd empty one.
func decidedSection(rng *rand.Rand) packet.Section {
	sec := packet.Section{Kind: packet.KindABA, Phase: packet.PhaseDecided}
	for i := 0; i <= rng.Intn(2); i++ {
		e := packet.Entry{Slot: uint8(rng.Intn(4)), Data: []byte{uint8(rng.Intn(2))}}
		if rng.Intn(10) == 0 {
			e.Data = nil
		}
		sec.Entries = append(sec.Entries, e)
	}
	return sec
}

// TestBrachaABAMatchesMapModel streams random vote-RBC views and DECIDED
// claims — duplicate and conflicting views from one peer, slots out of
// range, short views, values past ⊥, rounds at and past the cap — into
// BrachaABA and into its map-based oracle. A view from a sender that is
// none of the N is dropped and counted by the component; the oracle, which
// indexes out of range on one, is not shown it.
func TestBrachaABAMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		dense, ref := newABASide(seed, nil), newABASide(seed, nil)
		a := NewBrachaABA(dense.env, BrachaOptions{Slots: 3, OnDecide: dense.decided})
		r := newRefBrachaABA(ref.env, BrachaOptions{Slots: 3, OnDecide: ref.decided})
		rng := rand.New(rand.NewSource(100 + seed))
		view := func(slot uint8, round uint16, ph int) []byte {
			data := make([]byte, 1+2*4)
			lean := uint8(int(slot)+int(round)+ph) % 2 // what most votes of this phase say
			for i := range data {
				switch p := rng.Intn(20); {
				case p < 11:
					data[i] = lean
				case p < 19:
					data[i] = uint8(rng.Intn(4)) // 0, 1, ⊥, none
				default:
					data[i] = 4 + uint8(rng.Intn(250))
				}
			}
			if rng.Intn(30) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			return data
		}
		decisions := 0
		for step := 0; step < 6000; step++ {
			if step%1500 == 0 && step/1500 < 3 {
				// The instances start one by one, so views also arrive ahead
				// of Input.
				v := rng.Intn(2) == 1
				a.Input(step/1500, v)
				r.Input(step/1500, v)
				sameSoFar(t, step, "input", dense, ref)
			}
			from := randomFrom(rng)
			var sec packet.Section
			if step >= 4500 && rng.Intn(6) == 0 {
				// Claims come late: three matching ones halt an instance.
				sec = decidedSection(rng)
			} else {
				ph := rng.Intn(3)
				sec = packet.Section{Kind: packet.KindABA, Phase: packet.PhaseVote1 + packet.Phase(ph)}
				for i := 0; i <= rng.Intn(3); i++ {
					slot, round := uint8(rng.Intn(4)), refRounds[rng.Intn(len(refRounds))]
					sec.Entries = append(sec.Entries, packet.Entry{Slot: slot, Round: round, Data: view(slot, round, ph)})
				}
			}
			what := fmt.Sprintf("phase %d from %d", sec.Phase, from)
			if from >= 4 {
				entries, rejected := len(dense.log), dense.env.T.Stats().Rejected
				a.HandleSection(from, sec)
				if len(dense.log) != entries || dense.env.T.Stats().Rejected != rejected+1 {
					t.Fatalf("step %d (%s): a section from no peer was acted on, or not counted", step, what)
				}
				continue
			}
			a.HandleSection(from, sec)
			r.HandleSection(from, sec)
			sameSoFar(t, step, what, dense, ref)
			if step%50 == 0 {
				dense.sched.RunFor(time.Second)
				ref.sched.RunFor(time.Second)
			}
		}
		for slot := 0; slot < 3; slot++ {
			if d, o := a.Decided(slot), r.Decided(slot); (d == nil) != (o == nil) || (d != nil && *d != *o) {
				t.Fatalf("seed %d slot %d: decided %v, oracle %v", seed, slot, d, o)
			}
		}
		decisions += a.DecidedCount()
		sameTraffic(t, dense, ref)
		if len(dense.log) < 100 || decisions == 0 {
			t.Fatalf("seed %d: the stream caused %d log entries and %d decisions", seed, len(dense.log), decisions)
		}
	}
}

// coinID names one entry of a coinMaterial: peer w's share of the coin
// of (slot, round), or, under w = 0, that coin's certificate.
type coinID struct {
	w     int
	slot  uint8
	round uint16
}

// coinMaterial makes what the reference-model streams draw their coin
// shares from: every peer's genuine share, encoded in full, of every coin
// a stream may ask for (session 42, epoch 0, slots 0–2 and the shared
// slot, rounds 1–6), and each such coin's certificate, made of peers 1
// and 2's shares — nil under a coin without certificates.
func coinMaterial[S, V any](t testing.TB, suites []*crypto.Suite, coin func(*Env) Coin[S, V]) map[coinID][]byte {
	t.Helper()
	out, made := map[coinID][]byte{}, map[coinID]S{}
	var c Coin[S, V]
	for w := 1; w < 4; w++ {
		peer := &Env{N: 4, F: 1, Me: w, Session: 42, Suite: suites[w], Rand: rand.New(rand.NewSource(int64(w)))}
		c = coin(peer)
		for _, slot := range []uint8{0, 1, 2, sharedSlot} {
			for round := uint16(1); round <= 6; round++ {
				sh, err := c.share(coinName(42, 0, slot, round))
				if err != nil {
					t.Fatal(err)
				}
				made[coinID{w, slot, round}], out[coinID{w, slot, round}] = sh, c.encode(sh)
			}
		}
	}
	for _, slot := range []uint8{0, 1, 2, sharedSlot} {
		for round := uint16(1); round <= 6; round++ {
			pair := []S{made[coinID{1, slot, round}], made[coinID{2, slot, round}]}
			_, cert, err := c.combine(coinName(42, 0, slot, round), pair)
			if err != nil {
				t.Fatal(err)
			}
			out[coinID{0, slot, round}] = cert
		}
	}
	return out
}

// TestCachinABAMatchesMapModel streams random BVAL, AUX, coin-share and
// DECIDED sections into CachinABA and into its map-based oracle, under
// both coin-sharing modes, with every peer live and with every peer one
// that lost state: then the sections come through the transport, whose
// rows mark the peers so, and their entries for the rounds both have
// parked bring the parked intents back on the air. The coin shares are the peers' genuine ones
// (and some garbage, and now and then a coin's certificate in a share's
// place), so the instances climb through several rounds.
func TestCachinABAMatchesMapModel(t *testing.T) {
	suites, err := crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	shares := coinMaterial(t, suites, SigCoin)
	for _, mode := range []struct{ shared, regressed bool }{{true, false}, {false, false}, {true, true}, {false, true}} {
		t.Run(fmt.Sprintf("shared=%v,regressed=%v", mode.shared, mode.regressed), func(t *testing.T) {
			const seed = 5
			dense, ref := newABASide(seed, suites[0]), newABASide(seed, suites[0])
			a := NewCachinABA(dense.env, SigCoin(dense.env), CachinOptions{Slots: 3, SharedCoin: mode.shared, OnDecide: dense.decided})
			r := newRefCachinABA(ref.env, SigCoin(ref.env), CachinOptions{Slots: 3, SharedCoin: mode.shared, OnDecide: ref.decided})
			if mode.regressed {
				dense.regress()
				ref.regress()
			}
			rng := rand.New(rand.NewSource(200))
			maxRound := uint16(0)
			for step := 0; step < 4000; step++ {
				if step%800 == 0 && step/800 < 3 {
					v := rng.Intn(2) == 1
					a.Input(step/800, v)
					r.Input(step/800, v)
					sameSoFar(t, step, "input", dense, ref)
				}
				from := randomFrom(rng)
				sec := packet.Section{Kind: packet.KindABA}
				switch p := rng.Intn(10); {
				case p < 4:
					sec.Phase = packet.PhaseBval
				case p < 7:
					sec.Phase = packet.PhaseAux
				case p < 9 || step < 3000:
					sec.Phase = packet.PhaseShare
				default:
					// Claims come late: three matching ones halt an instance.
					sec = decidedSection(rng)
				}
				for i := 0; sec.Phase != packet.PhaseDecided && i <= rng.Intn(3); i++ {
					e := packet.Entry{Slot: uint8(rng.Intn(4)), Round: refRounds[rng.Intn(len(refRounds))]}
					switch sec.Phase {
					case packet.PhaseBval:
						e.Data = []byte{uint8(1 + rng.Intn(3))} // BVAL(0), BVAL(1) or both
					case packet.PhaseAux:
						e.Data = []byte{uint8(rng.Intn(2))}
					case packet.PhaseShare:
						if mode.shared || rng.Intn(8) == 0 {
							e.Slot = sharedSlot
						}
						e.Sub = uint8(from)
						e.Data = shares[coinID{int(from), e.Slot, e.Round}] // nil past round 6: undecodable
						switch rng.Intn(10) {
						case 0:
							e.Data = []byte("not a coin share")
						case 1:
							e.Flags, e.Data = certFlag, shares[coinID{0, e.Slot, e.Round}]
						}
					}
					if rng.Intn(40) == 0 {
						e.Data = nil
					}
					sec.Entries = append(sec.Entries, e)
				}
				what := fmt.Sprintf("phase %d from %d", sec.Phase, from)
				if from >= 4 {
					entries, rejected := len(dense.log), dense.env.T.Stats().Rejected
					a.HandleSection(from, sec)
					if len(dense.log) != entries || dense.env.T.Stats().Rejected != rejected+1 {
						t.Fatalf("step %d (%s): a section from no peer was acted on, or not counted", step, what)
					}
					continue
				}
				if mode.regressed {
					dense.deliver(from, sec)
					ref.deliver(from, sec)
				} else {
					a.HandleSection(from, sec)
					r.HandleSection(from, sec)
				}
				// Shares are verified and coins combined on the CPU.
				dense.sched.RunFor(time.Second)
				ref.sched.RunFor(time.Second)
				sameSoFar(t, step, what, dense, ref)
				for slot, s := range a.slots {
					if s == nil {
						s = new(abaSlot) // no Input yet: no record, the oracle's zero one
					}
					if halted := a.halted.Get(slot); s.round != r.slots[slot].round || s.est != r.slots[slot].est || halted != r.slots[slot].halted {
						t.Fatalf("step %d (%s): slot %d at round %d est %v halted %v, oracle round %d est %v halted %v", step, what, slot,
							s.round, s.est, halted, r.slots[slot].round, r.slots[slot].est, r.slots[slot].halted)
					}
					maxRound = max(maxRound, s.round)
				}
			}
			sameTraffic(t, dense, ref)
			// Round 3 is the first to draw the threshold coin: the stream
			// must climb past it.
			if a.DecidedCount() == 0 || maxRound < 4 {
				t.Fatalf("the stream decided %d instances and reached round %d", a.DecidedCount(), maxRound)
			}
		})
	}
}
