package component

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// recorder is a pass-through core.Interceptor that remembers every intent
// a node publishes, so a test can see what went on the air and replay it.
type recorder struct{ seen []core.Intent }

func (r *recorder) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	r.seen = append(r.seen, in)
	return []core.Intent{in}
}

// entries returns the recorded intents of one (phase, slot) as the wire
// entries a receiver would see.
func (r *recorder) entries(phase packet.Phase, slot int) []packet.Entry {
	var out []packet.Entry
	for _, in := range r.seen {
		if in.Phase == phase && int(in.Slot) == slot {
			out = append(out, packet.Entry{Slot: in.Slot, Sub: in.Sub, Flags: in.Flags, Data: in.Data})
		}
	}
	return out
}

func record(env *Env) *recorder {
	r := &recorder{}
	env.T.SetInterceptor(r)
	return r
}

// kernelKinds are the three wire kinds the one certified-broadcast machine
// serves; every kernel property below must hold for each.
var kernelKinds = []struct {
	name  string
	kind  packet.Kind
	small bool
}{
	{"cbc-value", packet.KindCBCValue, false},
	{"cbc-commit-small", packet.KindCBCCommit, true},
	{"vcbc", packet.KindVCBC, false},
}

// newKernel builds one instance per node.
func newKernel(tn *testNet, kind packet.Kind, small bool) []*CBC {
	out := make([]*CBC, len(tn.envs))
	for i, env := range tn.envs {
		out[i] = NewCBC(env, CBCOptions{Kind: kind, Slots: 4, Small: small})
	}
	return out
}

func kernelValue(i int, small bool) []byte {
	if small {
		return []byte{byte(i), 1, 2}
	}
	return bytes.Repeat([]byte{byte('a' + i)}, 400) // three INITIAL fragments
}

func (tn *testNet) settle(d time.Duration) {
	for until := tn.sched.Now() + d; tn.sched.Now() < until && tn.sched.Step(); {
	}
}

func TestCertifiedBroadcastKernel(t *testing.T) {
	const seed = 31
	for _, k := range kernelKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			// One honest run: every node proposes, everyone delivers every
			// slot with a certificate. Later sub-tests replay its traffic.
			tn := newTestNet(t, seed, 0, true)
			leaderOut := record(tn.envs[0])
			nodes := newKernel(tn, k.kind, k.small)
			for i, v := range nodes {
				i := i
				v.onDeliver = func(slot int, value, cert []byte) {
					if len(cert) == 0 {
						t.Errorf("node %d slot %d delivered without a certificate", i, slot)
					}
				}
				v.Propose(i, kernelValue(i, k.small))
			}
			tn.run(t, 30*time.Minute, func() bool {
				for _, v := range nodes {
					if v.DeliveredCount() < 4 {
						return false
					}
				}
				return true
			})
			for slot := 0; slot < 4; slot++ {
				for i, v := range nodes {
					if !bytes.Equal(v.Value(slot), kernelValue(slot, k.small)) {
						t.Errorf("node %d slot %d delivered %q", i, slot, v.Value(slot))
					}
				}
			}
			finish := EncodeFinish(nodes[0].slots[0].certHash, nodes[0].slots[0].cert.value)
			initial := leaderOut.entries(packet.PhaseInitial, 0)

			t.Run("fetch with the value in hand", func(t *testing.T) {
				// The leader restarts with amnesia and re-proposes the same
				// value (Alea's log replay). Its peers delivered long ago and
				// withdrew their ECHO shares, so no certificate can form. The
				// minute of settling makes "long ago" hold: frames a peer built
				// before it delivered may still be queued behind the medium,
				// carrying its share.
				tn.settle(time.Minute)
				peers := []*recorder{record(tn.envs[1]), record(tn.envs[2]), record(tn.envs[3])}
				restarted := NewCBC(tn.envs[0], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})
				restarted.Propose(0, kernelValue(0, k.small))
				tn.settle(2 * time.Minute)
				if restarted.Delivered(0) {
					t.Fatal("delivered without a certificate")
				}
				restarted.Fetch(0)
				tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return restarted.Delivered(0) })
				if !bytes.Equal(restarted.Value(0), kernelValue(0, k.small)) {
					t.Errorf("fetched %q", restarted.Value(0))
				}
				if k.small {
					return // an inline value rides every re-serve
				}
				for i, p := range peers {
					if n := len(p.entries(packet.PhaseInitial, 0)); n != 0 {
						t.Errorf("peer %d re-served %d fragments to a node holding the value", i+1, n)
					}
				}
			})

			t.Run("fetch after a fresh re-propose", func(t *testing.T) {
				// The leader restarts without a log and proposes a different
				// value for a slot its peers certified long ago (Dumbo after
				// Chain.Recover). Fetch vouches for the wrong value; the
				// certificate must correct it and pull the certified one.
				restarted := NewCBC(tn.envs[0], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})
				restarted.Propose(0, kernelValue(7, k.small))
				restarted.Fetch(0)
				tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return restarted.Delivered(0) })
				if !bytes.Equal(restarted.Value(0), kernelValue(0, k.small)) {
					t.Errorf("fetched %q, want the certified value", restarted.Value(0))
				}
			})

			// The remaining sub-tests drive one node of a fresh deployment
			// by hand, feeding it sections as its transport would.
			lone := func() (*testNet, *CBC) {
				tn := newTestNet(t, seed, 0, true)
				return tn, newKernel(tn, k.kind, k.small)[3]
			}
			feed := func(v *CBC, from int, phase packet.Phase, es ...packet.Entry) {
				v.HandleSection(uint16(from), packet.Section{Kind: k.kind, Phase: phase, Entries: es})
			}
			other := packet.Entry{Slot: 0, Flags: 1, Data: []byte("not what the quorum signed")}

			t.Run("certificate binding", func(t *testing.T) {
				// A FINISH certificate vouches for one (kind, session, epoch,
				// slot, hash): replayed anywhere else it is one rejected
				// contribution and certifies nothing.
				cert := EncodeFinish(nodes[0].slots[1].certHash, nodes[0].slots[1].cert.value)
				replay := func(tn *testNet, v *CBC, slot int) bool {
					before := v.env.T.Stats().Rejected
					feed(v, 0, packet.PhaseFinish, packet.Entry{Slot: uint8(slot), Data: cert})
					tn.settle(time.Minute)
					return v.slots[slot].cert.done || v.env.T.Stats().Rejected != before+1
				}
				tn, v := lone()
				if replay(tn, v, 2) {
					t.Error("certificate accepted for another slot")
				}
				v.env.Epoch++
				if replay(tn, v, 1) {
					t.Error("certificate accepted in another epoch")
				}
				v.env.Epoch--
				v.env.Session++
				if replay(tn, v, 1) {
					t.Error("certificate accepted in another session")
				}
				v.env.Session--
				for _, o := range kernelKinds {
					if o.kind == k.kind {
						continue
					}
					tn := newTestNet(t, seed, 0, true)
					if replay(tn, newKernel(tn, o.kind, o.small)[3], 1) {
						t.Errorf("%s certificate accepted by a %s instance", k.name, o.name)
					}
				}
				feed(v, 0, packet.PhaseFinish, packet.Entry{Slot: 1, Data: cert})
				tn.settle(time.Minute)
				if !v.slots[1].cert.done {
					t.Error("certificate refused by a node of the same deployment that never delivered")
				}
			})

			t.Run("equivocating leader", func(t *testing.T) {
				tn, v := lone()
				feed(v, 0, packet.PhaseInitial, other)
				if !v.slots[0].assembled {
					t.Fatal("leader's INITIAL not assembled")
				}
				feed(v, 1, packet.PhaseFinish, packet.Entry{Slot: 0, Data: finish})
				tn.settle(time.Minute)
				s := v.slots[0]
				if s.delivered || s.assembled || !s.needRepair {
					t.Fatalf("after a certificate for another value: delivered=%v assembled=%v needRepair=%v",
						s.delivered, s.assembled, s.needRepair)
				}
				feed(v, 2, packet.PhaseInitial, initial...) // any peer may repair
				if !bytes.Equal(v.Value(0), kernelValue(0, k.small)) {
					t.Errorf("delivered %q, want the certified value", v.Value(0))
				}
			})

			t.Run("forged repair", func(t *testing.T) {
				tn, v := lone()
				feed(v, 1, packet.PhaseFinish, packet.Entry{Slot: 0, Data: finish})
				tn.settle(time.Minute)
				if !v.slots[0].needRepair {
					t.Fatal("certificate without a value did not request repair")
				}
				feed(v, 2, packet.PhaseInitial, other)
				tn.settle(time.Minute)
				if v.Delivered(0) || v.slots[0].assembled {
					t.Fatal("forged repair value kept")
				}
				feed(v, 2, packet.PhaseInitial, initial...)
				if !bytes.Equal(v.Value(0), kernelValue(0, k.small)) {
					t.Errorf("delivered %q after the genuine repair", v.Value(0))
				}
			})
		})
	}
}

// TestDisseminationSizes round-trips values around the fragment boundaries
// through publish and receive.
func TestDisseminationSizes(t *testing.T) {
	const frag = 16
	tn := newTestNet(t, 32, 0, true)
	out := record(tn.envs[0])
	d := newDissemination(tn.envs[0], packet.KindRBC, false, frag, 4)
	for slot, tc := range []struct{ size, fragments int }{
		{0, 1}, {3 * frag, 3}, {3*frag + 1, 4},
	} {
		value := bytes.Repeat([]byte{0xAB}, tc.size)
		d.publish(slot, value, nil)
		es := out.entries(packet.PhaseInitial, slot)
		if len(es) != tc.fragments {
			t.Errorf("%d B: %d fragments, want %d", tc.size, len(es), tc.fragments)
		}
		var s valueSlot
		for i, e := range es {
			got, whole := d.receive(slot, &s, d.leader(slot), e)
			if whole != (i == len(es)-1) {
				t.Fatalf("%d B: whole=%v after fragment %d of %d", tc.size, whole, i+1, len(es))
			}
			if whole && !bytes.Equal(got, value) {
				t.Errorf("%d B: reassembled %d B", tc.size, len(got))
			}
		}
	}
}

// TestFragmentCap pins the INITIAL count byte's limit: 255 fragments
// deliver, 256 are refused at propose time instead of wrapping to zero.
func TestFragmentCap(t *testing.T) {
	const frag = 4
	tn := newTestNet(t, 33, 0, true)
	rbcs := make([]*RBC, 4)
	for i, env := range tn.envs {
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4})
		rbcs[i].frag = frag
	}
	rbcs[0].Propose(0, bytes.Repeat([]byte("x"), maxFragments*frag))
	tn.run(t, 2*time.Hour, func() bool {
		for _, r := range rbcs {
			if !r.Delivered(0) {
				return false
			}
		}
		return true
	})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"1021 B value", "1020 B", "255 fragments of 4 B"} {
			if !strings.Contains(msg, want) {
				t.Errorf("refusal %q does not mention %q", msg, want)
			}
		}
	}()
	rbcs[1].Propose(1, bytes.Repeat([]byte("x"), maxFragments*frag+1))
	t.Error("256-fragment value accepted")
}

// TestDecryptorShareBeforeCiphertext has one node learn the ciphertext
// only after its peers' shares arrived: the parked shares must be verified
// and the plaintext recovered.
func TestDecryptorShareBeforeCiphertext(t *testing.T) {
	tn := newTestNet(t, 34, 0, true)
	plain := []byte("late to the ciphertext")
	ct, err := tn.envs[0].Suite.TE.Encrypt(plain, tn.envs[0].Rand)
	if err != nil {
		t.Fatal(err)
	}
	decs := make([]*Decryptor, 4)
	for i, env := range tn.envs {
		decs[i] = NewDecryptor(env, 4, nil)
	}
	for i := 0; i < 3; i++ {
		decs[i].Submit(0, ct)
	}
	tn.run(t, 10*time.Minute, func() bool { return decs[0].Plaintext(0) != nil && decs[3].slots[0] != nil })
	if decs[3].Plaintext(0) != nil {
		t.Fatal("decrypted without the ciphertext")
	}
	decs[3].Submit(0, ct)
	tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return decs[3].Plaintext(0) != nil })
	if !bytes.Equal(decs[3].Plaintext(0), plain) {
		t.Errorf("decrypted %q", decs[3].Plaintext(0))
	}
}

// collectorRig is one user's tally on node 0, seen through the one
// collector with the type parameters erased, so a single table can drive
// CBC's certificate, PRBC's DONE proof, both coins and the Decryptor.
type collectorRig struct {
	k           int
	verifyCost  time.Duration
	certCost    time.Duration // 0: the scheme has no certificates
	decodeFirst bool          // an undecodable share is refused before anything is charged
	offer       func(w int, raw []byte)
	offerCert   func(raw []byte)   // a certificate entry, from node 1
	peer        func(w int) []byte // node w's genuine encoded share of the subject
	cert        func() []byte      // the subject's genuine certificate (nil: none)
	foreign     func() []byte      // a genuine certificate of another subject
	// sharePhase is where the certificate replaces this node's share on
	// the air once the value exists (0: the user withdraws the share then).
	sharePhase packet.Phase
	poison     func()     // leave k-1 verified copies of node 1's share under other senders
	held       func() int // shares gathered
	done       func() bool
	own        func() []byte
	combined   *int               // times the user's callback ran
	check      func(t *testing.T) // the combined value is the right one
}

func rigOf[X, S, V any](c *collector[X, S, V], tl *tally[X, S, V], id int, peers []scheme[X, S, V]) collectorRig {
	runs := new(int)
	then := c.combined
	c.combined = func(id int, v V) { *runs++; then(id, v) }
	r := collectorRig{
		k: c.k, verifyCost: c.verifyCost, decodeFirst: true, combined: runs,
		offer:     func(w int, raw []byte) { c.offer(tl, id, w, 0, raw) },
		offerCert: func(raw []byte) { c.offer(tl, id, 1, certFlag, raw) },
		cert:      func() []byte { return certOf(peers, c.k, tl.subject) },
		peer: func(w int) []byte {
			sh, err := peers[w].share(tl.subject)
			if err != nil {
				panic(err)
			}
			return peers[w].encode(sh)
		},
		poison: func() {
			sh, err := peers[1].share(tl.subject)
			if err != nil {
				panic(err)
			}
			tl.shares, tl.nShares = make([]heldShare[S], c.env.N), c.k-1
			for w := 2; w <= c.k; w++ {
				tl.shares[w] = heldShare[S]{sh, true}
			}
		},
		held: func() int { return tl.nShares },
		done: func() bool { return tl.done },
		own:  func() []byte { return tl.own },
	}
	if c.check != nil {
		r.certCost = c.certCost
	}
	return r
}

// certOf combines peers 1…k's shares of x into the certificate of the
// value (nil for a scheme without one).
func certOf[X, S, V any](peers []scheme[X, S, V], k int, x X) []byte {
	shares := make([]S, 0, k)
	for w := 1; w <= k; w++ {
		sh, err := peers[w].share(x)
		if err != nil {
			panic(err)
		}
		shares = append(shares, sh)
	}
	_, cert, err := peers[1].combine(x, shares)
	if err != nil {
		panic(err)
	}
	return cert
}

func peerSchemes[X, S, V any](tn *testNet, of func(*Env) scheme[X, S, V]) []scheme[X, S, V] {
	out := make([]scheme[X, S, V], len(tn.envs))
	for i, env := range tn.envs {
		out[i] = of(env)
	}
	return out
}

// collectorUsers builds each user of the share collector on node 0 with
// its own share already released, and returns the tally it gathers in.
var collectorUsers = []struct {
	name string
	rig  func(t *testing.T, tn *testNet) collectorRig
}{
	{"cbc-certificate", func(t *testing.T, tn *testNet) collectorRig {
		c := NewCBC(tn.envs[0], CBCOptions{Kind: packet.KindCBCValue, Slots: 4})
		c.Propose(0, []byte("certified value"))
		peers := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
			return sigScheme(env, env.Suite.TSHigh, env.Suite.TSHighShare)
		})
		r := rigOf(&c.echoes, &c.slots[0].cert, 0, peers)
		r.foreign = func() []byte { return certOf(peers, r.k, c.shareMessage(1, HashValue([]byte("certified value")))) }
		r.check = func(t *testing.T) {
			if !c.Delivered(0) {
				t.Error("certificate combined, slot not delivered")
			}
			sig := &threshsig.Signature{S: bigFromBytes(c.slots[0].cert.value)}
			if err := tn.envs[0].Suite.TSHigh.Verify(c.slots[0].cert.subject, sig); err != nil {
				t.Errorf("combined certificate does not verify: %v", err)
			}
		}
		return r
	}},
	{"prbc-done-proof", func(t *testing.T, tn *testNet) collectorRig {
		p := NewPRBC(tn.envs[0], PRBCOptions{Slots: 4})
		value := []byte("proven value")
		p.onRBCDeliver(1, value)
		peers := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
			return sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare)
		})
		r := rigOf(&p.dones, &p.slots[1].proof, 1, peers)
		r.foreign = func() []byte { return certOf(peers, r.k, p.doneMessage(2, HashValue(value))) }
		r.sharePhase = packet.PhaseDone
		r.check = func(t *testing.T) {
			if err := p.VerifyProof(1, HashValue(value), p.Proof(1)); err != nil {
				t.Errorf("combined proof does not verify: %v", err)
			}
		}
		return r
	}},
	{"cut-cert", func(t *testing.T, tn *testNet) collectorRig {
		var got [][]byte
		c := NewCutCert(tn.envs[0], func(cert []byte) { got = append(got, cert) })
		c.Begin([]byte("cut of cluster 1, epoch 3"))
		peers := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
			return sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare)
		})
		r := rigOf(&c.sigs, &c.cert, 0, peers)
		r.foreign = func() []byte { return certOf(peers, r.k, []byte("cut of cluster 1, epoch 4")) }
		r.sharePhase = packet.PhaseDone
		r.check = func(t *testing.T) {
			sig := &threshsig.Signature{S: bigFromBytes(c.Cert())}
			if err := tn.envs[0].Suite.TSLow.Verify(c.cert.subject, sig); err != nil {
				t.Errorf("combined cut certificate does not verify: %v", err)
			}
			if len(got) != 1 || !bytes.Equal(got[0], c.Cert()) {
				t.Errorf("certificate callback saw %x, tally holds %x", got, c.Cert())
			}
		}
		return r
	}},
	{"sig-coin", func(t *testing.T, tn *testNet) collectorRig { return coinRig(t, tn, SigCoin) }},
	{"flip-coin", func(t *testing.T, tn *testNet) collectorRig { return coinRig(t, tn, FlipCoin) }},
	{"decryptor", func(t *testing.T, tn *testNet) collectorRig {
		plain := []byte("threshold-encrypted proposal")
		ct, err := tn.envs[1].Suite.TE.Encrypt(plain, tn.envs[1].Rand)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		d := NewDecryptor(tn.envs[0], 4, func(_ int, p []byte) { got = p })
		d.Submit(2, ct)
		r := rigOf(&d.shares, &d.slot(2).tally, 2, peerSchemes(tn, decScheme))
		r.check = func(t *testing.T) {
			if !bytes.Equal(got, plain) || !bytes.Equal(d.Plaintext(2), plain) {
				t.Errorf("recovered %q / %q, want %q", got, d.Plaintext(2), plain)
			}
		}
		return r
	}},
}

func coinRig(t *testing.T, tn *testNet, source func(*Env) CoinSource) collectorRig {
	a := NewCachinABA(tn.envs[0], CachinOptions{Slots: 2, Coin: source(tn.envs[0])})
	k := coinKey{slot: 1, round: 1}
	cs := a.coinState(k)
	var got []bool
	a.withCoin(1, 1, func(v bool) { got = append(got, v) })
	a.releaseCoinShare(1, 1)
	peers := peerSchemes(tn, func(env *Env) scheme[[]byte, []byte, bool] {
		return source(env).scheme
	})
	r := rigOf(&a.coin, &cs.tally, k.id(), peers)
	r.foreign = func() []byte { return certOf(peers, r.k, a.coinState(coinKey{slot: 1, round: 2}).subject) }
	r.sharePhase = packet.PhaseShare
	r.decodeFirst = false // a coin share is charged before it is looked into
	r.check = func(t *testing.T) {
		// Any two other shares give the same bit.
		s := source(tn.envs[3]).scheme
		want, _, err := s.combine(cs.subject, [][]byte{r.peer(2), r.peer(3)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want || cs.value != want {
			t.Errorf("coin waiters saw %v, tally holds %v, want %v", got, cs.value, want)
		}
		a.withCoin(1, 1, func(v bool) { got = append(got, v) })
		if len(got) != 2 || got[1] != want {
			t.Errorf("a waiter arriving after the coin saw %v", got)
		}
	}
	return r
}

// TestShareCollector runs the one verify → collect → combine machine
// through each of its users, on node 0 with the peers' shares handed in
// directly.
func TestShareCollector(t *testing.T) {
	for _, u := range collectorUsers {
		t.Run(u.name, func(t *testing.T) {
			tn := newTestNet(t, 41, 0, true)
			env := tn.envs[0]
			r := u.rig(t, tn)
			tn.settle(time.Second) // this node's own share is made and counted
			if r.held() != 1 || r.own() == nil {
				t.Fatalf("after release: %d shares held, own share %x", r.held(), r.own())
			}
			// offered hands in a share and reports the CPU time charged for
			// taking it (Exec books a job when it is posted) and, once the
			// job has run, the rejections it caused.
			offered := func(w int, raw []byte) (time.Duration, uint64) {
				busy, rej := env.CPU.BusyTotal(), env.T.Stats().Rejected
				r.offer(w, raw)
				cost := env.CPU.BusyTotal() - busy
				tn.settle(time.Second)
				return cost, env.T.Stats().Rejected - rej
			}
			good := r.peer(1)

			wantCost := r.verifyCost
			if r.decodeFirst {
				wantCost = 0
			}
			if cost, rej := offered(1, good[:len(good)/2]); cost != wantCost || rej != 1 || r.held() != 1 {
				t.Errorf("undecodable share: charged %v (want %v), %d rejections, %d held", cost, wantCost, rej, r.held())
			}
			bad := append([]byte(nil), good...)
			bad[len(bad)-1] ^= 1
			if cost, rej := offered(1, bad); cost != r.verifyCost || rej != 1 || r.held() != 1 {
				t.Errorf("invalid share: charged %v (want %v), %d rejections, %d held", cost, r.verifyCost, rej, r.held())
			}

			// A combination that fails — k copies of one share — drops
			// every share, keeps the node's own beside them, and leaves
			// the tally collecting.
			r.poison()
			own := r.own()
			offered(1, good)
			if r.done() || r.held() != 0 || *r.combined != 0 || !bytes.Equal(r.own(), own) {
				t.Fatalf("after a failed combination: done %v, %d held, %d callbacks, own share kept %v",
					r.done(), r.held(), *r.combined, bytes.Equal(r.own(), own))
			}

			// It recovers from fresh shares; a sender's second copy costs
			// nothing and counts for nothing.
			if cost, _ := offered(1, good); cost != r.verifyCost || r.held() != 1 {
				t.Errorf("first share after the reset: charged %v, %d held", cost, r.held())
			}
			if cost, rej := offered(1, good); cost != 0 || rej != 0 || r.held() != 1 {
				t.Errorf("duplicate share: charged %v, %d rejections, %d held", cost, rej, r.held())
			}
			for w := 2; !r.done() && w < 4; w++ {
				offered(w, r.peer(w))
			}
			if !r.done() || *r.combined != 1 {
				t.Fatalf("did not recover: done %v, %d callbacks", r.done(), *r.combined)
			}
			r.check(t)

			// Once the value is set a share is not even verified.
			if cost, rej := offered(3, r.peer(3)); cost != 0 || rej != 0 || *r.combined != 1 {
				t.Errorf("share after the value: charged %v, %d rejections, %d callbacks", cost, rej, *r.combined)
			}
		})
	}
}

// TestCertificates: a peer's certificate settles a tally of a scheme that
// has them with one check and no combine, and from then on stands in for
// this node's share on the air; a genuine certificate of another subject
// is rejected, and so is every certificate entry offered to a scheme that
// has none.
func TestCertificates(t *testing.T) {
	for _, u := range collectorUsers {
		t.Run(u.name, func(t *testing.T) {
			tn := newTestNet(t, 41, 0, true)
			env := tn.envs[0]
			rec := record(env)
			r := u.rig(t, tn)
			tn.settle(time.Second)
			offered := func(raw []byte) (time.Duration, uint64) {
				busy, rej := env.CPU.BusyTotal(), env.T.Stats().Rejected
				r.offerCert(raw)
				cost := env.CPU.BusyTotal() - busy
				tn.settle(time.Second)
				return cost, env.T.Stats().Rejected - rej
			}
			if r.certCost == 0 {
				if cost, rej := offered(r.peer(1)); cost != 0 || rej != 1 || r.done() {
					t.Errorf("certificate entry to a scheme without them: charged %v, %d rejections, done %v", cost, rej, r.done())
				}
				return
			}
			if cost, rej := offered(r.foreign()); cost != r.certCost || rej != 1 || r.done() {
				t.Errorf("another subject's certificate: charged %v (want %v), %d rejections, done %v", cost, r.certCost, rej, r.done())
			}
			cert := r.cert()
			if cost, rej := offered(cert); cost != r.certCost || rej != 0 || !r.done() || r.held() != 1 || *r.combined != 1 {
				t.Fatalf("genuine certificate: charged %v (want %v), %d rejections, done %v, %d shares held, %d callbacks",
					cost, r.certCost, rej, r.done(), r.held(), *r.combined)
			}
			r.check(t)
			if r.sharePhase != 0 {
				var last core.Intent
				for _, in := range rec.seen {
					if in.Phase == r.sharePhase {
						last = in
					}
				}
				if last.Flags != certFlag || !bytes.Equal(last.Data, cert) {
					t.Errorf("this node's entry after the certificate: flags %d, %x", last.Flags, last.Data)
				}
			}
			if cost, rej := offered(cert); cost != 0 || rej != 0 || *r.combined != 1 {
				t.Errorf("certificate after the value: charged %v, %d rejections, %d callbacks", cost, rej, *r.combined)
			}
		})
	}
}

// TestCertificateOvertakesCombine: a combination under way when a
// certificate settles the tally is dropped at its end, so the user's
// callback runs once.
func TestCertificateOvertakesCombine(t *testing.T) {
	for _, u := range collectorUsers {
		t.Run(u.name, func(t *testing.T) {
			tn := newTestNet(t, 42, 0, true)
			env := tn.envs[0]
			r := u.rig(t, tn)
			if r.certCost == 0 {
				t.Skip("no certificates")
			}
			tn.settle(time.Second)
			for w := 1; r.held() < r.k-1; w++ {
				r.offer(w, r.peer(w))
				tn.settle(time.Second)
			}
			// The last share's verification is queued first, so its
			// combination starts while the certificate is being checked.
			busy := env.CPU.BusyTotal()
			r.offer(3, r.peer(3))
			r.offerCert(r.cert())
			tn.settle(time.Second)
			if r.held() != r.k || !r.done() || *r.combined != 1 {
				t.Fatalf("%d shares held, done %v, %d callbacks", r.held(), r.done(), *r.combined)
			}
			if spent := env.CPU.BusyTotal() - busy; spent < r.verifyCost+r.certCost+env.Suite.Cost.TSCombine {
				t.Errorf("charged %v: the combination did not run", spent)
			}
			r.check(t)
		})
	}
}

// TestCertificateBeforeSubject: a PRBC proof that comes before this node's
// RBC delivery parks with the DONE shares; at delivery it is checked first,
// settles the slot, and the parked shares are never verified. The share
// this node releases then goes out as the proof.
func TestCertificateBeforeSubject(t *testing.T) {
	tn := newTestNet(t, 45, 0, true)
	env := tn.envs[0]
	rec := record(env)
	var proofs int
	p := NewPRBC(env, PRBCOptions{Slots: 4, OnProof: func(int, []byte, []byte) { proofs++ }})
	value := []byte("proven ahead of delivery")
	peers := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
		return sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare)
	})
	msg := p.doneMessage(1, HashValue(value))
	cert := certOf(peers, env.Suite.TSLow.K, msg)
	sh, err := peers[2].share(msg)
	if err != nil {
		t.Fatal(err)
	}
	busy := env.CPU.BusyTotal()
	p.HandleSection(2, packet.Section{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Entries: []packet.Entry{{Slot: 1, Sub: 2, Data: EncodeSigShare(sh)}}})
	p.HandleSection(3, packet.Section{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Entries: []packet.Entry{{Slot: 1, Sub: 3, Flags: certFlag, Data: cert}}})
	if env.CPU.BusyTotal() != busy || p.slots[1].proof.done {
		t.Fatal("something was checked before the subject")
	}
	p.onRBCDeliver(1, value)
	cost := env.Suite.Cost
	if charged := env.CPU.BusyTotal() - busy; charged != cost.TSVerify+cost.TSSign {
		t.Errorf("delivery charged %v, want the proof's check and this node's share (%v)", charged, cost.TSVerify+cost.TSSign)
	}
	tn.settle(time.Second)
	if proofs != 1 || p.slots[1].proof.nShares != 0 || !bytes.Equal(p.Proof(1), cert) {
		t.Fatalf("%d proofs, %d shares held, proof %x", proofs, p.slots[1].proof.nShares, p.Proof(1))
	}
	var mine []core.Intent
	for _, in := range rec.seen {
		if in.Phase == packet.PhaseDone {
			mine = append(mine, in)
		}
	}
	if len(mine) != 1 || mine[0].Flags != certFlag || !bytes.Equal(mine[0].Data, cert) {
		t.Errorf("this node published %+v; want the proof once", mine)
	}
}

// TestOwnShareReplay: what a node re-serves to a peer that lost its state
// is its own share as the tally kept it, or the value's certificate once
// there is one — in a pruned round's replay for a coin; for the Decryptor,
// the share intent its transport parked once every peer's row confirmed
// the slot and brings back when one clears the done bit. A coin share
// released after the coin exists is never made: the certificate goes out
// in its place.
func TestOwnShareReplay(t *testing.T) {
	onAir := func(rec *recorder, phase packet.Phase, round uint16) []core.Intent {
		var out []core.Intent
		for _, in := range rec.seen {
			if in.Phase == phase && in.Round == round {
				out = append(out, in)
			}
		}
		return out
	}
	shareOnAir := func(rec *recorder, phase packet.Phase, round uint16) [][]byte {
		var out [][]byte
		for _, in := range onAir(rec, phase, round) {
			out = append(out, in.Data)
		}
		return out
	}
	t.Run("coin", func(t *testing.T) {
		tn := newTestNet(t, 43, 0, true)
		env := tn.envs[0]
		rec := record(env)
		a := NewCachinABA(env, CachinOptions{Slots: 1, Coin: SigCoin(env)})
		a.markRegressed(1)
		a.Input(0, true)
		peer := func(w int, round uint16) []byte {
			raw, err := SigCoin(tn.envs[w]).share(coinName(env.Session, env.Epoch, 0, round))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		// Round 1: our share counts. Round 2: two peers' shares combine
		// before ours is released.
		a.releaseCoinShare(0, 1)
		a.handleCoinShare(0, 2, 1, 0, peer(1, 2))
		a.handleCoinShare(0, 2, 2, 0, peer(2, 2))
		tn.settle(time.Second)
		busy := env.CPU.BusyTotal()
		a.releaseCoinShare(0, 2)
		if env.CPU.BusyTotal() != busy {
			t.Errorf("round 2: a share was made after the coin existed")
		}
		tn.settle(time.Second)
		a.round(0, 2)        // the node has been through rounds 1 and 2 …
		a.slots[0].round = 4 // … and left them behind.
		for _, round := range []uint16{1, 2} {
			if n := len(onAir(rec, packet.PhaseShare, round)); n != 1 {
				t.Fatalf("round %d: published %d times", round, n)
			}
		}
		a.reserveRound(0, 1, 1)
		a.reserveRound(0, 2, 1)
		if got := onAir(rec, packet.PhaseShare, 1); len(got) != 2 || !bytes.Equal(got[0].Data, got[1].Data) || got[1].Flags != 0 {
			t.Errorf("round 1: the share that counted was re-served %d times", len(got)-1)
		}
		cert := a.coinState(coinKey{slot: 0, round: 2}).cert
		got := onAir(rec, packet.PhaseShare, 2)
		if cert == nil || len(got) != 2 {
			t.Fatalf("round 2: certificate %x, published %d times", cert, len(got))
		}
		for i, in := range got {
			if in.Flags != certFlag || !bytes.Equal(in.Data, cert) {
				t.Errorf("round 2, publication %d: flags %d, data %x; want the certificate", i, in.Flags, in.Data)
			}
		}
	})
	t.Run("decryptor", func(t *testing.T) {
		tn := newTestNet(t, 44, 0, true)
		env := tn.envs[0]
		rec := record(env)
		ct, err := env.Suite.TE.Encrypt([]byte("replayed"), env.Rand)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecryptor(env, 4, nil)
		// Peer 2 has no decryptor of its own; it listens for node 0's share.
		var heard [][]byte
		tn.envs[2].T.Register(packet.KindDec, core.HandlerFunc(func(from uint16, sec packet.Section) {
			for _, e := range sec.Entries {
				if from == 0 && e.Slot == 0 {
					heard = append(heard, bytes.Clone(e.Data))
				}
			}
		}))
		d.Submit(0, ct)
		tn.settle(time.Second)
		done := packet.NewBitSet(4)
		done.Set(0)
		for w := 1; w < 4; w++ { // every peer confirms: the share leaves the air
			tn.envs[w].T.SetNack(packet.KindDec, packet.PhaseDecShare, done)
		}
		tn.settle(5 * time.Second)
		before := len(heard)
		tn.settle(time.Minute)
		if before == 0 || len(heard) != before {
			t.Fatalf("share heard %d times before the confirmations and %d more in the minute after", before, len(heard)-before)
		}
		// Peer 2 comes back without the done bit.
		tn.envs[2].T.SetNack(packet.KindDec, packet.PhaseDecShare, packet.NewBitSet(4))
		tn.settle(5 * time.Second)
		published := shareOnAir(rec, packet.PhaseDecShare, 0)
		if len(heard) != before+1 || len(published) != 1 || !bytes.Equal(heard[before], published[0]) {
			t.Errorf("share re-served %d times to a peer that lost its state, published %d times", len(heard)-before, len(published))
		}
	})
}

// TestLedValueLog pins the write-ahead log of led values (Env.Led). A
// broadcast whose log already holds a value for its kind publishes that
// value's INITIAL fragments in place of the argument, and a CBC asks for
// the certificate back (a PhaseRepair intent on its own slot); a fresh log
// records the argument before the first send; a nil log records nothing.
// Node 0 replays on slot 0, node 1 proposes into a fresh log on slot 1,
// node 2 into none on slot 2.
func TestLedValueLog(t *testing.T) {
	logged, arg := bytes.Repeat([]byte("L"), 400), bytes.Repeat([]byte("A"), 400)
	initial := func(rec *recorder, slot int) []byte {
		var v []byte
		for _, e := range rec.entries(packet.PhaseInitial, slot) {
			v = append(v, e.Data...)
		}
		return v
	}
	for _, tc := range []struct {
		name    string
		kind    packet.Kind
		propose func(env *Env) func(slot int, value []byte)
	}{
		{"rbc", packet.KindRBC, func(env *Env) func(int, []byte) { return NewRBC(env, RBCOptions{Slots: 4}).Propose }},
		{"cbc", packet.KindCBCValue, func(env *Env) func(int, []byte) {
			return NewCBC(env, CBCOptions{Kind: packet.KindCBCValue, Slots: 4}).Propose
		}},
		{"vcbc", packet.KindVCBC, func(env *Env) func(int, []byte) {
			return NewCBC(env, CBCOptions{Kind: packet.KindVCBC, Slots: 4}).Propose
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, 45, 0, true)
			logs := []Led{{tc.kind: logged}, {}, nil}
			for i, log := range logs {
				env := tn.envs[i]
				env.Led = log
				rec := record(env)
				tc.propose(env)(i, arg)
				want, repair := arg, false
				if i == 0 {
					want, repair = logged, tc.kind != packet.KindRBC
				}
				if got := initial(rec, i); !bytes.Equal(got, want) {
					t.Errorf("node %d: INITIAL carries %q…, want %q…", i, got[:1], want[:1])
				}
				if got := len(rec.entries(packet.PhaseRepair, i)) > 0; got != repair {
					t.Errorf("node %d: repair intent %v, want %v", i, got, repair)
				}
				if log != nil && !bytes.Equal(log[tc.kind], want) {
					t.Errorf("node %d: log holds %q…, want %q…", i, log[tc.kind][:1], want[:1])
				}
			}
			if tn.envs[2].Led != nil {
				t.Error("a nil log was filled")
			}
		})
	}
	// The encrypted proposal path logs the ciphertext: a replay re-sends it
	// with no encryption charged and no randomness drawn.
	t.Run("encrypted", func(t *testing.T) {
		tn := newTestNet(t, 46, 0, true)
		plain := []byte("the batch")
		ct, err := tn.envs[3].Suite.TE.Encrypt(plain, tn.envs[3].Rand)
		if err != nil {
			t.Fatal(err)
		}
		sealed := EncodeCiphertext(ct)
		for i, log := range []Led{{packet.KindRBC: sealed}, {}} {
			env := tn.envs[i]
			env.Led, env.Rand = log, rand.New(rand.NewSource(7))
			rec := record(env)
			NewRBC(env, RBCOptions{Slots: 4}).ProposeEncrypted(i, plain)
			busy, draw := env.CPU.BusyTotal(), env.Rand.Int63()
			fresh := rand.New(rand.NewSource(7)).Int63()
			if i == 0 {
				if busy != 0 || draw != fresh || !bytes.Equal(initial(rec, 0), sealed) {
					t.Errorf("replay: charged %v, drew randomness %v, re-sent the logged ciphertext %v",
						busy, draw != fresh, bytes.Equal(initial(rec, 0), sealed))
				}
				continue
			}
			if busy != env.Suite.Cost.TEEncrypt {
				t.Errorf("fresh: charged %v, want TEEncrypt %v", busy, env.Suite.Cost.TEEncrypt)
			}
			tn.run(t, time.Minute, func() bool { return len(log) > 0 })
			if got, err := DecodeCiphertext(log[packet.KindRBC]); err != nil || !bytes.Equal(initial(rec, 1), log[packet.KindRBC]) {
				t.Errorf("fresh: logged %v (%v), INITIAL carries the logged value %v", got, err, bytes.Equal(initial(rec, 1), log[packet.KindRBC]))
			}
		}
	})
}
