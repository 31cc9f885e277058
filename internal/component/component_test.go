package component

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// testNet is a 4-node single-hop network with real crypto suites, shared
// across tests via subtest construction (dealing is the slow part).
type testNet struct {
	sched *sim.Scheduler
	ch    *wireless.Channel
	envs  []*Env
	// What a node keeps across a crash (crash, recover), as node.Node
	// does: its station, its mux — so its fragment sequence numbers run
	// on — and the receiver forwarding the station's frames to the mux.
	stations []*wireless.Station
	muxes    []*core.Mux
	inbound  []*relay
	tcfg     core.Config
}

// relay forwards a station's frames to the node's mux (nil: the node is
// down).
type relay struct{ to wireless.Receiver }

func (r *relay) ReceiveFrame(from wireless.NodeID, payload []byte) {
	if r.to != nil {
		r.to.ReceiveFrame(from, payload)
	}
}

func newTestNet(t testing.TB, seed int64, loss float64, batched bool) *testNet {
	t.Helper()
	const n, f = 4, 1
	sched := sim.New(seed)
	cfg := wireless.DefaultConfig()
	cfg.LossProb = loss
	ch := wireless.NewChannel(sched, cfg)
	suites, err := crypto.DealCached(n, f, crypto.LightConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	net := &testNet{sched: sched, ch: ch, tcfg: core.DefaultConfig(batched)}
	for i := 0; i < n; i++ {
		cpu := sim.NewCPU(sched)
		auth := &core.SizedAuth{
			Len:        suites[i].SigLen,
			CostSign:   suites[i].Cost.PKSign,
			CostVerify: suites[i].Cost.PKVerify,
		}
		m := core.NewMux(sched, cpu, auth, net.tcfg)
		in := &relay{to: m}
		st := ch.Attach(wireless.NodeID(i), in)
		m.BindStation(st)
		tr := m.Open(0)
		net.stations, net.muxes, net.inbound = append(net.stations, st), append(net.muxes, m), append(net.inbound, in)
		net.envs = append(net.envs, &Env{
			N: n, F: f, Me: i,
			Session: 42,
			Suite:   suites[i],
			T:       tr,
			CPU:     cpu,
			Sched:   sched,
			Rand:    rand.New(rand.NewSource(seed + int64(i)*1000)),
		})
	}
	return net
}

// crash takes node i off the air with all its in-memory state, as
// node.Crash does: its epoch closes, its radio queue empties, and frames
// for it are dropped.
func (tn *testNet) crash(i int) {
	tn.muxes[i].Close(0)
	tn.stations[i].Reset()
	tn.inbound[i].to = nil
}

// recover brings node i back with amnesia on a fresh transport of its mux,
// over the same station, CPU and keys, and returns its new Env. The
// crashed node's components keep the old Env and its stopped transport.
func (tn *testNet) recover(i int) *Env {
	env := *tn.envs[i]
	env.T = tn.muxes[i].Open(0)
	tn.inbound[i].to = tn.muxes[i]
	tn.envs[i] = &env
	return &env
}

// run drives the simulation until done() or the virtual deadline.
func (tn *testNet) run(t testing.TB, deadline time.Duration, done func() bool) {
	t.Helper()
	for tn.sched.Now() < deadline {
		if done() {
			return
		}
		if !tn.sched.Step() {
			break
		}
	}
	if !done() {
		t.Fatalf("simulation did not converge by %v (now %v)", deadline, tn.sched.Now())
	}
}

func TestRBCAllDeliverAllSlots(t *testing.T) {
	for _, batched := range []bool{true, false} {
		batched := batched
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			tn := newTestNet(t, 1, 0, batched)
			rbcs := make([]*RBC, 4)
			for i, env := range tn.envs {
				rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
			}
			for i, env := range tn.envs {
				rbcs[i].Propose(env.Me, []byte(fmt.Sprintf("proposal-from-%d", i)))
			}
			tn.run(t, 10*time.Minute, func() bool {
				for _, r := range rbcs {
					if r.DeliveredCount() < 4 {
						return false
					}
				}
				return true
			})
			// Agreement + validity: all nodes hold identical values per slot.
			for slot := 0; slot < 4; slot++ {
				want := rbcs[0].Value(slot)
				if !bytes.Equal(want, []byte(fmt.Sprintf("proposal-from-%d", slot))) {
					t.Errorf("slot %d delivered %q", slot, want)
				}
				for i := 1; i < 4; i++ {
					if !bytes.Equal(rbcs[i].Value(slot), want) {
						t.Errorf("node %d slot %d disagrees", i, slot)
					}
				}
			}
		})
	}
}

func TestRBCLargeProposalFragments(t *testing.T) {
	tn := newTestNet(t, 2, 0, true)
	rbcs := make([]*RBC, 4)
	for i, env := range tn.envs {
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
	}
	big := bytes.Repeat([]byte("x"), 700) // several INITIAL fragments
	rbcs[0].Propose(0, big)
	tn.run(t, 10*time.Minute, func() bool {
		for _, r := range rbcs {
			if !r.Delivered(0) {
				return false
			}
		}
		return true
	})
	for i := range rbcs {
		if !bytes.Equal(rbcs[i].Value(0), big) {
			t.Errorf("node %d corrupted large proposal", i)
		}
	}
}

func TestRBCUnderLoss(t *testing.T) {
	tn := newTestNet(t, 3, 0.15, true) // 15% loss: NACK repair must kick in
	rbcs := make([]*RBC, 4)
	for i, env := range tn.envs {
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
	}
	for i := range tn.envs {
		rbcs[i].Propose(i, []byte(fmt.Sprintf("lossy-%d", i)))
	}
	tn.run(t, 30*time.Minute, func() bool {
		for _, r := range rbcs {
			if r.DeliveredCount() < 4 {
				return false
			}
		}
		return true
	})
}

func TestRBCCrashedLeaderOtherSlotsComplete(t *testing.T) {
	tn := newTestNet(t, 4, 0, true)
	rbcs := make([]*RBC, 4)
	for i, env := range tn.envs {
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
	}
	// Node 3 crashes: never proposes.
	for i := 0; i < 3; i++ {
		rbcs[i].Propose(i, []byte{byte(i)})
	}
	tn.run(t, 10*time.Minute, func() bool {
		for i := 0; i < 4; i++ {
			for slot := 0; slot < 3; slot++ {
				if !rbcs[i].Delivered(slot) {
					return false
				}
			}
		}
		return true
	})
	for i := range rbcs {
		if rbcs[i].Delivered(3) {
			t.Error("slot of crashed leader delivered without a proposal")
		}
	}
}

func TestRBCSmallInlineValues(t *testing.T) {
	tn := newTestNet(t, 5, 0, true)
	rbcs := make([]*RBC, 4)
	for i, env := range tn.envs {
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4, Small: true})
	}
	for i := range tn.envs {
		rbcs[i].Propose(i, []byte{byte(i)})
	}
	tn.run(t, 10*time.Minute, func() bool {
		for _, r := range rbcs {
			if r.DeliveredCount() < 4 {
				return false
			}
		}
		return true
	})
}

func TestPRBCProofsVerify(t *testing.T) {
	tn := newTestNet(t, 6, 0, true)
	prbcs := make([]*PRBC, 4)
	for i, env := range tn.envs {
		prbcs[i] = NewPRBC(env, PRBCOptions{Slots: 4})
	}
	for i := range tn.envs {
		prbcs[i].Propose(i, []byte(fmt.Sprintf("prbc-%d", i)))
	}
	tn.run(t, 15*time.Minute, func() bool {
		for _, p := range prbcs {
			if p.dones.done.Count() < 4 {
				return false
			}
		}
		return true
	})
	// Every proof verifies under every node's public key.
	for slot := 0; slot < 4; slot++ {
		proof := prbcs[0].Proof(slot)
		h := HashValue(prbcs[0].RBC().Value(slot))
		for i := range prbcs {
			if err := prbcs[i].VerifyProof(slot, h, proof); err != nil {
				t.Errorf("node %d rejects proof for slot %d: %v", i, slot, err)
			}
		}
		if err := prbcs[0].VerifyProof(slot, HashValue([]byte("forged")), proof); err == nil {
			t.Errorf("slot %d proof verified against forged hash", slot)
		}
	}
}

func TestCBCDeliversWithCert(t *testing.T) {
	tn := newTestNet(t, 7, 0, true)
	cbcs := make([]*CBC, 4)
	delivered := make([]int, 4)
	for i, env := range tn.envs {
		i := i
		cbcs[i] = NewCBC(env, CBCOptions{
			Kind:  packet.KindCBCValue,
			Slots: 4,
			OnDeliver: func(slot int, value []byte, cert []byte) {
				if len(cert) == 0 {
					t.Errorf("node %d slot %d delivered without cert", i, slot)
				}
				delivered[i]++
			},
		})
	}
	for i := range tn.envs {
		cbcs[i].Propose(i, []byte(fmt.Sprintf("cbc-%d", i)))
	}
	tn.run(t, 15*time.Minute, func() bool {
		for i := range cbcs {
			if delivered[i] < 4 {
				return false
			}
		}
		return true
	})
	for slot := 0; slot < 4; slot++ {
		want := cbcs[0].Value(slot)
		for i := 1; i < 4; i++ {
			if !bytes.Equal(cbcs[i].Value(slot), want) {
				t.Errorf("CBC slot %d consistency violated", slot)
			}
		}
	}
}

// The two Cachin agreements, by coin: ABA-SC and ABA-CP.
type (
	sigABA  = CachinABA[*threshsig.SigShare, []byte]
	flipABA = CachinABA[*threshcoin.CoinShare, [32]byte]
)

func TestCachinABAAgreementAllOnes(t *testing.T) {
	for _, shared := range []bool{true, false} {
		shared := shared
		t.Run(fmt.Sprintf("sharedCoin=%v", shared), func(t *testing.T) {
			tn := newTestNet(t, 8, 0, true)
			abas := make([]*sigABA, 4)
			for i, env := range tn.envs {
				env := env
				abas[i] = NewCachinABA(env, SigCoin(env), CachinOptions{
					Slots:      4,
					SharedCoin: shared,
				})
			}
			for i := range tn.envs {
				for slot := 0; slot < 4; slot++ {
					abas[i].Input(slot, true)
				}
			}
			tn.run(t, 20*time.Minute, func() bool {
				for _, a := range abas {
					if a.DecidedCount() < 4 {
						return false
					}
				}
				return true
			})
			for slot := 0; slot < 4; slot++ {
				for i := range abas {
					if v := abas[i].Decided(slot); v == nil || !*v {
						t.Errorf("node %d slot %d decided %v, want true (validity)", i, slot, v)
					}
				}
			}
		})
	}
}

func TestCachinABAMixedInputsAgree(t *testing.T) {
	tn := newTestNet(t, 9, 0, true)
	abas := make([]*flipABA, 4)
	for i, env := range tn.envs {
		env := env
		abas[i] = NewCachinABA(env, FlipCoin(env), CachinOptions{
			Slots:      2,
			SharedCoin: true,
		})
	}
	// Split inputs 2-2: agreement must still hold (either value is valid).
	for i := range tn.envs {
		abas[i].Input(0, i < 2)
		abas[i].Input(1, i%2 == 0)
	}
	tn.run(t, 30*time.Minute, func() bool {
		for _, a := range abas {
			if a.DecidedCount() < 2 {
				return false
			}
		}
		return true
	})
	for slot := 0; slot < 2; slot++ {
		want := *abas[0].Decided(slot)
		for i := 1; i < 4; i++ {
			if *abas[i].Decided(slot) != want {
				t.Fatalf("ABA agreement violated on slot %d", slot)
			}
		}
	}
}

// TestCachinCoinSchedule pins the coin schedule (fixedCoin) for both
// threshold coins: rounds 1 and 2 of every three use coin 1 and then 0 and
// touch no threshold crypto, and only a round ≡ 0 (mod 3) draws the coin.
//   - unanimous: an instance every node starts with 1 decides in round 1,
//     one every node starts with 0 in round 2, and no node ever publishes
//     a coin share or opens a coin's tally;
//   - split: a schedule that keeps both values alive through rounds 1 and 2
//     leaves node 0 undecided until round 3's threshold coin is combined;
//     a peer's share of a fixed round's coin is dropped unread, and counted;
//   - agreement: split, unanimous-1 and unanimous-0 instances side by side
//     agree on seeds 1–50, and every coin share any node publishes is for a
//     round ≡ 0 (mod 3).
func TestCachinCoinSchedule(t *testing.T) {
	testCoinSchedule(t, "SC", SigCoin)
	testCoinSchedule(t, "CP", FlipCoin)
}

func testCoinSchedule[S, V any](t *testing.T, name string, coin func(*Env) Coin[S, V]) {
	t.Run(name+"/unanimous", func(t *testing.T) {
		for _, shared := range []bool{true, false} {
			tn := newTestNet(t, 31, 0, true)
			abas := make([]*CachinABA[S, V], 4)
			recs := make([]*recorder, 4)
			decidedIn := make([][2]uint16, 4)
			for i, env := range tn.envs {
				i := i
				recs[i] = record(env)
				abas[i] = NewCachinABA(env, coin(env), CachinOptions{Slots: 2, SharedCoin: shared,
					OnDecide: func(slot int, _ bool) { decidedIn[i][slot] = abas[i].slots[slot].round }})
			}
			for i := range abas {
				abas[i].Input(0, true)
				abas[i].Input(1, false)
			}
			tn.run(t, 20*time.Minute, func() bool {
				for _, a := range abas {
					if a.DecidedCount() < 2 {
						return false
					}
				}
				return true
			})
			for i, a := range abas {
				if v0, v1 := a.Decided(0), a.Decided(1); !*v0 || *v1 || decidedIn[i] != [2]uint16{1, 2} {
					t.Errorf("shared=%v node %d: decided %v in round %d and %v in round %d; want true in 1, false in 2",
						shared, i, *v0, decidedIn[i][0], *v1, decidedIn[i][1])
				}
				if got := recs[i].entries(packet.PhaseShare, int(sharedSlot)); len(got) != 0 {
					t.Errorf("shared=%v node %d published %d shared-coin entries", shared, i, len(got))
				}
				for slot := 0; slot < 2; slot++ {
					if got := recs[i].entries(packet.PhaseShare, slot); len(got) != 0 {
						t.Errorf("shared=%v node %d published %d coin entries for slot %d", shared, i, len(got), slot)
					}
				}
				for k := range a.coins {
					t.Errorf("shared=%v node %d opened the coin of slot %d round %d", shared, i, k.slot, k.round)
				}
			}
		}
	})
	t.Run(name+"/split", func(t *testing.T) {
		suites, err := crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(78)))
		if err != nil {
			t.Fatal(err)
		}
		side := newABASide(6, suites[0])
		env := side.env
		rec := record(env)
		a := NewCachinABA(env, coin(env), CachinOptions{Slots: 1, OnDecide: side.decided})
		sharesOut := func() (rounds []uint16) {
			for _, in := range rec.seen {
				if in.Phase == packet.PhaseShare {
					rounds = append(rounds, in.Round)
				}
			}
			return rounds
		}
		made := func(w int, round uint16) S {
			peer := &Env{N: 4, F: 1, Me: w, Session: env.Session, Suite: suites[w], Rand: rand.New(rand.NewSource(int64(w)))}
			sh, err := coin(peer).share(coinName(env.Session, env.Epoch, 0, round))
			if err != nil {
				t.Fatal(err)
			}
			return sh
		}
		share := func(w int, round uint16) []byte { return coin(env).encode(made(w, round)) }
		// What round 3's coin will be, combined off to the side.
		c := coin(env)
		v3, _, err := c.combine(coinName(env.Session, env.Epoch, 0, 3), []S{made(1, 3), made(2, 3)})
		if err != nil {
			t.Fatal(err)
		}
		coin3 := c.bit(v3)
		// vote has peers 1 and 2 send their round-r BVALs and AUX
		// votes: with both, BVALs for 0 and 1 and AUX votes v and ¬v;
		// else BVAL and AUX for v alone.
		vote := func(r uint16, both bool, v bool) {
			bits := uint8(1) << b2i(v)
			if both {
				bits = 3
			}
			for _, w := range []uint16{1, 2} {
				aux := v
				if both && w == 2 {
					aux = !v
				}
				a.HandleSection(w, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseBval, Entries: []packet.Entry{{Round: r, Data: []byte{bits}}}})
				a.HandleSection(w, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseAux, Entries: []packet.Entry{{Round: r, Data: []byte{uint8(b2i(aux))}}}})
			}
			side.sched.RunFor(time.Second)
		}
		a.Input(0, true)
		// A peer's share of round 1's coin, which no honest node draws.
		rejected, busy := env.T.Stats().Rejected, env.CPU.BusyTotal()
		a.HandleSection(1, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseShare, Entries: []packet.Entry{{Sub: 1, Round: 1, Data: share(1, 1)}}})
		side.sched.RunFor(time.Second)
		if _, opened := a.coins[coinKey{slot: 0, round: 1}]; env.T.Stats().Rejected != rejected+1 || env.CPU.BusyTotal() != busy || opened {
			t.Errorf("a round-1 coin share was not dropped unread: rejected %d → %d, CPU %v → %v",
				rejected, env.T.Stats().Rejected, busy, env.CPU.BusyTotal())
		}
		// Rounds 1 and 2: both values reach this node's vals, so each
		// round's estimate is its fixed coin, and nothing decides.
		vote(1, true, true)
		vote(2, true, false)
		if s := a.slots[0]; s.round != 3 || s.est != false || a.Decided(0) != nil {
			t.Fatalf("after two split rounds: round %d, est %v, decided %v; want round 3, est false, undecided", s.round, s.est, a.Decided(0))
		}
		if got := sharesOut(); len(got) != 0 {
			t.Fatalf("coin shares went out in fixed rounds %v", got)
		}
		// Round 3: the peers agree on the coming coin's value, and this
		// node waits for the coin to decide.
		vote(3, false, coin3)
		if a.Decided(0) != nil {
			t.Fatal("decided in round 3 before its coin existed")
		}
		if got := sharesOut(); len(got) != 1 || got[0] != 3 {
			t.Fatalf("coin shares went out in rounds %v; want round 3's once", got)
		}
		a.HandleSection(1, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseShare, Entries: []packet.Entry{{Sub: 1, Round: 3, Data: share(1, 3)}}})
		side.sched.RunFor(time.Minute)
		if v := a.Decided(0); v == nil || *v != coin3 || !a.coins[coinKey{slot: 0, round: 3}].done || a.slots[0].round != 4 {
			t.Fatalf("after round 3's coin (%v): decided %v in round %d", coin3, v, a.slots[0].round-1)
		}
	})
	t.Run(name+"/agreement", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			tn := newTestNet(t, seed, 0, true)
			abas := make([]*CachinABA[S, V], 4)
			recs := make([]*recorder, 4)
			for i, env := range tn.envs {
				recs[i] = record(env)
				abas[i] = NewCachinABA(env, coin(env), CachinOptions{Slots: 3, SharedCoin: seed%2 == 0})
			}
			for i := range abas {
				abas[i].Input(0, i%2 == 0)
				abas[i].Input(1, true)
				abas[i].Input(2, false)
			}
			tn.run(t, 60*time.Minute, func() bool {
				for _, a := range abas {
					if a.DecidedCount() < 3 {
						return false
					}
				}
				return true
			})
			for slot := 0; slot < 3; slot++ {
				want := *abas[0].Decided(slot)
				for i := 1; i < 4; i++ {
					if *abas[i].Decided(slot) != want {
						t.Fatalf("seed %d: agreement violated on slot %d", seed, slot)
					}
				}
				if slot > 0 && want != (slot == 1) {
					t.Fatalf("seed %d: unanimous slot %d decided %v (validity)", seed, slot, want)
				}
			}
			for i, rec := range recs {
				for _, in := range rec.seen {
					if _, fixed := fixedCoin(in.Round); in.Phase == packet.PhaseShare && fixed {
						t.Fatalf("seed %d: node %d published a coin share for round %d", seed, i, in.Round)
					}
				}
			}
		}
	})
}

func TestBrachaABAAgreement(t *testing.T) {
	tn := newTestNet(t, 10, 0, true)
	abas := make([]*BrachaABA, 4)
	for i, env := range tn.envs {
		abas[i] = NewBrachaABA(env, BrachaOptions{Slots: 2})
	}
	for i := range tn.envs {
		abas[i].Input(0, true)     // unanimous
		abas[i].Input(1, i%2 == 0) // split
	}
	tn.run(t, 60*time.Minute, func() bool {
		for _, a := range abas {
			if a.DecidedCount() < 2 {
				return false
			}
		}
		return true
	})
	if v := abas[0].Decided(0); v == nil || !*v {
		t.Error("unanimous-true slot decided false (validity)")
	}
	for slot := 0; slot < 2; slot++ {
		want := *abas[0].Decided(slot)
		for i := 1; i < 4; i++ {
			if *abas[i].Decided(slot) != want {
				t.Fatalf("Bracha agreement violated on slot %d", slot)
			}
		}
	}
}

// viewWithholder passes a node's outbound intents until drop is set, and
// drops them after; passed is a copy of the last one it passed.
type viewWithholder struct {
	drop   bool
	passed []byte
}

func (w *viewWithholder) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	if w.drop {
		return nil
	}
	w.passed = bytes.Clone(in.Data)
	return []core.Intent{in}
}

// TestWithheldViewKeepsLastPassed: BrachaABA publishes its views from its
// phase records and rewrites them in place, so when an interceptor drops
// an update of a view's key, the transport must still send the view the
// interceptor passed last, byte for byte, and not the bytes the record
// holds now.
func TestWithheldViewKeepsLastPassed(t *testing.T) {
	tn := newTestNet(t, 12, 0, true)
	ic := &viewWithholder{}
	tn.muxes[0].SetInterceptor(ic)
	a := NewBrachaABA(tn.envs[0], BrachaOptions{Slots: 1})
	var heard [][]byte // node 0's round-1 views of slot 0, as node 1 hears them
	tn.envs[1].T.Register(packet.KindABA, core.HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			if from == 0 && sec.Phase == packet.PhaseVote1 && e.Slot == 0 && e.Round == 1 {
				heard = append(heard, bytes.Clone(e.Data))
			}
		}
	}))
	a.Input(0, true)
	// Peers 1 and 2 vote: node 0 echoes each, and withholds both updates.
	ic.drop = true
	none := [4]uint8{voteNone, voteNone, voteNone, voteNone}
	for w := uint16(1); w <= 2; w++ {
		a.HandleSection(w, packet.Section{Kind: packet.KindABA, Phase: packet.PhaseVote1,
			Entries: []packet.Entry{{Slot: 0, Round: 1, Data: brachaView(voteOne, none, none)}}})
	}
	if view := a.phase(0, 1, 0).view(); bytes.Equal(view, ic.passed) {
		t.Fatalf("the record's view %x is still the one passed last: nothing was withheld", view)
	}
	tn.sched.RunFor(30 * time.Second)
	if len(heard) == 0 {
		t.Fatal("node 1 heard no view of node 0's")
	}
	for i, v := range heard {
		if !bytes.Equal(v, ic.passed) {
			t.Fatalf("node 1's view %d from node 0 is %x, want %x, the last the interceptor passed", i, v, ic.passed)
		}
	}
}

func TestCachinABAWithCrashFault(t *testing.T) {
	tn := newTestNet(t, 11, 0, true)
	abas := make([]*sigABA, 4)
	for i, env := range tn.envs {
		env := env
		abas[i] = NewCachinABA(env, SigCoin(env), CachinOptions{
			Slots:      1,
			SharedCoin: true,
		})
	}
	// Node 3 crashed: no input, and its transport is silenced.
	tn.envs[3].T.Stop()
	for i := 0; i < 3; i++ {
		abas[i].Input(0, true)
	}
	tn.run(t, 30*time.Minute, func() bool {
		for i := 0; i < 3; i++ {
			if abas[i].DecidedCount() < 1 {
				return false
			}
		}
		return true
	})
	for i := 0; i < 3; i++ {
		if v := abas[i].Decided(0); v == nil || !*v {
			t.Errorf("honest node %d decided %v with crashed peer", i, v)
		}
	}
}

func TestDecryptorRoundTrip(t *testing.T) {
	tn := newTestNet(t, 12, 0, true)
	plain := []byte("the secret batch of transactions")
	ct, err := tn.envs[0].Suite.TE.Encrypt(plain, tn.envs[0].Rand)
	if err != nil {
		t.Fatal(err)
	}
	decs := make([]*Decryptor, 4)
	got := make([][]byte, 4)
	for i, env := range tn.envs {
		i := i
		decs[i] = NewDecryptor(env, 4, func(slot int, p []byte) {
			if slot == 0 {
				got[i] = p
			}
		})
	}
	for i := range tn.envs {
		decs[i].Submit(0, ct)
	}
	tn.run(t, 10*time.Minute, func() bool {
		for i := range got {
			if got[i] == nil {
				return false
			}
		}
		return true
	})
	for i := range got {
		if !bytes.Equal(got[i], plain) {
			t.Errorf("node %d decrypted %q", i, got[i])
		}
	}
}

func TestBatchedFewerAccessesThanBaseline(t *testing.T) {
	// The paper's core claim at component level: ConsensusBatcher needs
	// far fewer channel accesses than per-instance packets for the same
	// N-parallel RBC workload. Frames carry what changed, so one run's
	// count turns on how the events of its schedule fall into flush
	// windows (1.7x to 3.3x over seeds 1–12); the claim is over eight.
	accesses := map[bool]uint64{}
	for _, batched := range []bool{true, false} {
		for seed := int64(1); seed <= 8; seed++ {
			tn := newTestNet(t, seed, 0, batched)
			rbcs := make([]*RBC, 4)
			for i, env := range tn.envs {
				rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
			}
			for i := range tn.envs {
				rbcs[i].Propose(i, bytes.Repeat([]byte{byte(i)}, 32))
			}
			tn.run(t, 20*time.Minute, func() bool {
				for _, r := range rbcs {
					if r.DeliveredCount() < 4 {
						return false
					}
				}
				return true
			})
			accesses[batched] += tn.ch.Stats().Accesses
		}
	}
	if accesses[true]*2 > accesses[false] {
		t.Errorf("batched=%d baseline=%d accesses over eight seeds; expected >=2x reduction",
			accesses[true], accesses[false])
	}
}

// TestHaltedAgreementKeepsOnlyDecidedClaims: once every instance of a
// shared-coin agreement has halted, nothing of it but the DECIDED claims
// stays on the air — the last rounds' coin shares, which belong to no one
// instance, go too.
func TestHaltedAgreementKeepsOnlyDecidedClaims(t *testing.T) {
	tn := newTestNet(t, 8, 0, true)
	abas := make([]*sigABA, 4)
	for i, env := range tn.envs {
		abas[i] = NewCachinABA(env, SigCoin(env), CachinOptions{Slots: 4, SharedCoin: true})
	}
	halted := func() bool {
		for slot := range abas[0].slots {
			if !abas[0].halted.Get(slot) {
				return false
			}
		}
		return true
	}
	var haltedAt time.Duration
	var late []packet.Phase // what node 0 sent well after it halted
	tn.envs[1].T.Register(packet.KindABA, core.HandlerFunc(func(from uint16, sec packet.Section) {
		if from == 0 && haltedAt > 0 && tn.sched.Now() > haltedAt+5*time.Second && len(sec.Entries) > 0 {
			late = append(late, sec.Phase)
		}
		abas[1].HandleSection(from, sec)
	}))
	for i := range tn.envs {
		for slot := 0; slot < 4; slot++ {
			abas[i].Input(slot, true)
		}
	}
	tn.run(t, 20*time.Minute, halted)
	haltedAt = tn.sched.Now()
	tn.settle(10 * time.Minute)
	for _, p := range late {
		if p != packet.PhaseDecided {
			t.Errorf("phase %d still on the air after every instance halted", p)
		}
	}
}
