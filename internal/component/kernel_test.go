package component

import (
	"bytes"
	"fmt"
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

// watch is a pass-through core.Interceptor that shows every outbound
// intent to a function.
type watch func(core.Intent)

func (w watch) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	w(in)
	return []core.Intent{in}
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

			t.Run("replay recovers certificate", func(t *testing.T) {
				// The leader restarts with amnesia and re-proposes the same
				// value (the led-value log's replay). Its peers delivered long
				// ago and withdrew their ECHO shares, so no certificate can
				// form anew: it comes back through the restarted node's FINISH
				// row, from every peer that holds it, and the node, holding
				// the value, never installs a REPAIR row that would ask them
				// for it. The minute of settling makes "long ago" hold: frames
				// a peer built before it delivered may still be queued behind
				// the medium, carrying its share.
				tn.settle(time.Minute)
				restarted := NewCBC(tn.envs[0], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})
				restarted.Propose(0, kernelValue(0, k.small))
				tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return restarted.Delivered(0) })
				if !bytes.Equal(restarted.Value(0), kernelValue(0, k.small)) {
					t.Errorf("delivered %q", restarted.Value(0))
				}
				if restarted.repair != nil {
					t.Errorf("the restarted leader installed a REPAIR row %08b", restarted.repair)
				}
			})

			t.Run("missed slot via FINISH row", func(t *testing.T) {
				// A node that lost slot 2's value and certificate alike gets
				// both back with no call from outside, as a Dumbo or Alea node
				// does for a candidate its agreement accepted: its FINISH row
				// shows the slot undone, a holder serves the certificate, and
				// only then may the node ask for the value by its REPAIR row.
				tn.settle(time.Minute)
				restarted := NewCBC(tn.envs[1], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})
				early := false
				tn.run(t, tn.sched.Now()+10*time.Minute, func() bool {
					early = early || restarted.wanted(2) && !restarted.slots[2].cert.done
					return restarted.Delivered(2)
				})
				if !bytes.Equal(restarted.Value(2), kernelValue(2, k.small)) {
					t.Errorf("delivered %q", restarted.Value(2))
				}
				if early {
					t.Error("the REPAIR row asked for slot 2 before the certificate was in")
				}
			})

			t.Run("fresh re-propose corrected", func(t *testing.T) {
				// The leader restarts without a log and proposes a different
				// value for a slot its peers certified long ago (Dumbo after
				// Chain.Recover). The certificate its FINISH row brings back
				// must correct it and pull the certified value.
				restarted := NewCBC(tn.envs[0], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})
				restarted.Propose(0, kernelValue(7, k.small))
				tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return restarted.Delivered(0) })
				if !bytes.Equal(restarted.Value(0), kernelValue(0, k.small)) {
					t.Errorf("delivered %q, want the certified value", restarted.Value(0))
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
				if !v.held.Get(0) {
					t.Fatal("leader's INITIAL not assembled")
				}
				feed(v, 1, packet.PhaseFinish, packet.Entry{Slot: 0, Data: finish})
				tn.settle(time.Minute)
				if v.Delivered(0) || v.held.Get(0) || !v.wanted(0) {
					t.Fatalf("after a certificate for another value: delivered=%v assembled=%v wanted=%v",
						v.Delivered(0), v.held.Get(0), v.wanted(0))
				}
				feed(v, 2, packet.PhaseInitial, initial...) // INITIAL only from the leader
				if v.held.Get(0) {
					t.Fatal("a peer's INITIAL fragments assembled")
				}
				feed(v, 2, packet.PhaseRepair, initial...) // any peer may serve
				if !bytes.Equal(v.Value(0), kernelValue(0, k.small)) {
					t.Errorf("delivered %q, want the certified value", v.Value(0))
				}
			})

			t.Run("unwanted repair", func(t *testing.T) {
				// A served fragment of a slot the REPAIR row does not ask
				// for is dropped unread, from any peer, the leader included.
				tn, v := lone()
				feed(v, 0, packet.PhaseRepair, initial...)
				feed(v, 2, packet.PhaseRepair, initial...)
				tn.settle(time.Minute)
				if s := v.slots[0]; v.held.Get(0) || s.frags != nil {
					t.Fatalf("unwanted REPAIR entries kept: assembled=%v frags=%d", v.held.Get(0), len(s.frags))
				}
				feed(v, 0, packet.PhaseInitial, initial...)
				if !v.held.Get(0) {
					t.Fatal("the leader's INITIAL fragments did not assemble")
				}
			})

			t.Run("forged repair", func(t *testing.T) {
				tn, v := lone()
				feed(v, 1, packet.PhaseFinish, packet.Entry{Slot: 0, Data: finish})
				tn.settle(time.Minute)
				if !v.wanted(0) {
					t.Fatal("certificate without a value did not ask for it")
				}
				feed(v, 2, packet.PhaseRepair, other)
				tn.settle(time.Minute)
				if v.Delivered(0) || v.held.Get(0) || !v.wanted(0) {
					t.Fatal("forged repair value kept")
				}
				feed(v, 2, packet.PhaseRepair, initial...)
				if !bytes.Equal(v.Value(0), kernelValue(0, k.small)) {
					t.Errorf("delivered %q after the genuine repair", v.Value(0))
				}
			})
		})
	}
}

// dropPhase is an interceptor that keeps one phase's intents off the air.
type dropPhase packet.Phase

func (d dropPhase) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	if in.Phase == packet.Phase(d) {
		return nil
	}
	return []core.Intent{in}
}

// TestEveryNodeCertifies: on the shared channel every node overhears the
// ECHO shares and combines them itself. With no FINISH ever on the air,
// every node still delivers the slot, with its certificate.
func TestEveryNodeCertifies(t *testing.T) {
	for _, k := range kernelKinds {
		t.Run(k.name, func(t *testing.T) {
			tn := newTestNet(t, 47, 0, true)
			for _, env := range tn.envs {
				env.T.SetInterceptor(dropPhase(packet.PhaseFinish))
			}
			nodes := newKernel(tn, k.kind, k.small)
			nodes[1].Propose(1, kernelValue(1, k.small))
			tn.run(t, 10*time.Minute, func() bool {
				for _, v := range nodes {
					if !v.Delivered(1) {
						return false
					}
				}
				return true
			})
			for i, v := range nodes {
				if s := v.slots[1]; !bytes.Equal(v.Value(1), kernelValue(1, k.small)) || s.cert.cert == nil {
					t.Errorf("node %d: delivered %q…, combined %v", i, v.Value(1)[:1], s.cert.cert != nil)
				}
			}
		})
	}
}

// TestHeldFinishOutlivesItsCombiners: nodes 2 and 3 hear no ECHO, so they
// deliver slot 0 from the FINISH of nodes 0 and 1, the only combiners.
// Both combiners then lose their state, and node 0, the leader, comes back
// with none and proposes another value — an amnesiac node equivocates,
// which makes it Byzantine. Only the survivors hold the certificate now:
// they serve it to its FINISH row, and the leader delivers the value the
// certificate names, not the one it proposed.
func TestHeldFinishOutlivesItsCombiners(t *testing.T) {
	for _, k := range kernelKinds {
		t.Run(k.name, func(t *testing.T) {
			tn := newTestNet(t, 48, 0, true)
			nodes := newKernel(tn, k.kind, k.small)
			for _, i := range []int{2, 3} {
				v := nodes[i]
				tn.envs[i].T.Register(k.kind, core.HandlerFunc(func(from uint16, sec packet.Section) {
					if sec.Phase != packet.PhaseEcho {
						v.HandleSection(from, sec)
					}
				}))
			}
			nodes[0].Propose(0, kernelValue(0, k.small))
			tn.run(t, 10*time.Minute, func() bool { return nodes[2].Delivered(0) && nodes[3].Delivered(0) })
			if nodes[0].slots[0].cert.cert == nil && nodes[1].slots[0].cert.cert == nil {
				t.Fatal("neither node 0 nor node 1 combined the shares")
			}
			tn.crash(0)
			tn.crash(1)
			tn.settle(time.Minute)
			leader := NewCBC(tn.recover(0), CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})
			leader.Propose(0, kernelValue(7, k.small))
			tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return leader.Delivered(0) })
			if !bytes.Equal(leader.Value(0), kernelValue(0, k.small)) {
				t.Errorf("the reborn leader delivered %q…, want the certified first value", leader.Value(0)[:1])
			}
		})
	}
}

// TestDisseminationSizes round-trips values around the fragment boundaries
// through intents and receive.
func TestDisseminationSizes(t *testing.T) {
	const frag = 16
	tn := newTestNet(t, 32, 0, true)
	out := record(tn.envs[0])
	d := newDissemination(tn.envs[0], packet.KindRBC, false, frag, 4)
	for slot, tc := range []struct{ size, fragments int }{
		{0, 1}, {3 * frag, 3}, {3*frag + 1, 4},
	} {
		value := bytes.Repeat([]byte{0xAB}, tc.size)
		d.intents(slot, packet.PhaseInitial, value, d.env.T.Update)
		es := out.entries(packet.PhaseInitial, slot)
		if len(es) != tc.fragments {
			t.Errorf("%d B: %d fragments, want %d", tc.size, len(es), tc.fragments)
		}
		var s valueSlot
		for i, e := range es {
			got, whole := d.receive(slot, &s, d.leader(slot), packet.PhaseInitial, e)
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
	tn.run(t, 10*time.Minute, func() bool { return decs[0].Plaintext(0) != nil && decs[3].tallies[0].parked != nil })
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
// CBC's certificate, PRBC's DONE proof, the cut certificate, both coins
// and the Decryptor.
type collectorRig struct {
	k, kBare    int // shares a combination takes: verified, bare
	verifyCost  time.Duration
	combineCost time.Duration // what a combination of the shares as first sent is charged
	certCost    time.Duration // 0: the scheme has no certificates
	bare        bool          // shares go on the air bare first
	offer       func(w int, flags uint8, raw []byte)
	offerCert   func(raw []byte)   // a certificate entry, from node 1
	peer        func(w int) []byte // node w's genuine full encoded share of the subject
	peerBare    func(w int) []byte // the same share bare (nil: the scheme has no bare form)
	cert        func() []byte      // the subject's genuine certificate (nil: none)
	foreign     func() []byte      // a genuine certificate of another subject
	// sharePhase is where the certificate replaces this node's share on
	// the air once the value exists (0: the user withdraws the share then).
	sharePhase packet.Phase
	poison     func()     // leave k-1 verified copies of node 1's share under other senders
	held       func() int // shares gathered
	done       func() bool
	proofs     func() bool        // the tally counts only full shares
	own        func() []byte      // this node's share in full (nil: not made)
	combined   *int               // times the user's callback ran
	check      func(t *testing.T) // the combined value is the right one
}

// send offers node w's genuine share as it first goes on the air: bare
// under a scheme that has a bare form, else full and flagless.
func (r collectorRig) send(w int) {
	if r.bare {
		r.offer(w, 0, r.peerBare(w))
		return
	}
	r.offer(w, 0, r.peer(w))
}

func rigOf[X, S, V any](c *collector[X, S, V], tl *tally[X, S, V], id int, peers []scheme[X, S, V]) collectorRig {
	runs := new(int)
	then := c.combined
	c.combined = func(id int, v V) { *runs++; then(id, v) }
	share := func(w int) S {
		sh, err := peers[w].share(tl.subject)
		if err != nil {
			panic(err)
		}
		return sh
	}
	r := collectorRig{
		k: c.k, kBare: c.kBare, verifyCost: c.verifyCost, combineCost: c.combineCost, bare: c.bare != nil, combined: runs,
		offer:     func(w int, flags uint8, raw []byte) { c.offer(tl, id, w, flags, raw) },
		offerCert: func(raw []byte) { c.offer(tl, id, 1, certFlag, raw) },
		cert:      func() []byte { return certOf(peers, c.k, tl.subject) },
		peer:      func(w int) []byte { return peers[w].encode(share(w)) },
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
		held:   func() int { return tl.nShares },
		done:   func() bool { return tl.done },
		proofs: func() bool { return tl.proofs },
		own: func() []byte {
			if !tl.mine.held {
				return nil
			}
			return c.encode(tl.mine.share)
		},
	}
	if c.check != nil {
		r.certCost = c.certCost
	}
	if r.bare {
		r.peerBare = func(w int) []byte { return peers[w].bare(share(w)) }
		r.combineCost += c.certCost
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
			return sigScheme(env, true)
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
			return sigScheme(env, false)
		})
		r := rigOf(&p.dones.collector, &p.dones.tallies[1], 1, peers)
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
			return sigScheme(env, false)
		})
		r := rigOf(&c.collector, &c.tallies[0], 0, peers)
		r.foreign = func() []byte { return certOf(peers, r.k, []byte("cut of cluster 1, epoch 4")) }
		r.sharePhase = packet.PhaseDone
		r.check = func(t *testing.T) {
			sig := &threshsig.Signature{S: bigFromBytes(c.Cert())}
			if err := tn.envs[0].Suite.TSLow.Verify(c.tallies[0].subject, sig); err != nil {
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
		r := rigOf(&d.collector, &d.tallies[2], 2, peerSchemes(tn, decScheme))
		r.check = func(t *testing.T) {
			if !bytes.Equal(got, plain) || !bytes.Equal(d.Plaintext(2), plain) {
				t.Errorf("recovered %q / %q, want %q", got, d.Plaintext(2), plain)
			}
		}
		return r
	}},
}

func coinRig[S, V any](t *testing.T, tn *testNet, coin func(*Env) Coin[S, V]) collectorRig {
	a := NewCachinABA(tn.envs[0], coin(tn.envs[0]), CachinOptions{Slots: 2})
	k := coinKey{slot: 1, round: 1}
	cs := a.coinState(k)
	var got []bool
	a.withCoin(1, 1, func(v bool) { got = append(got, v) })
	a.releaseCoinShare(1, 1)
	peers := peerSchemes(tn, func(env *Env) scheme[[]byte, S, V] { return coin(env).scheme })
	r := rigOf(&a.coin, &cs.tally, k.id(), peers)
	r.foreign = func() []byte { return certOf(peers, r.k, a.coinState(coinKey{slot: 1, round: 2}).subject) }
	r.sharePhase = packet.PhaseShare
	r.check = func(t *testing.T) {
		// Any two other shares give the same bit.
		s := coin(tn.envs[3])
		shares := make([]S, 0, 2)
		for w := 2; w <= 3; w++ {
			sh, err := s.decode(r.peer(w))
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, sh)
		}
		v, _, err := s.combine(cs.subject, shares)
		if err != nil {
			t.Fatal(err)
		}
		want := s.bit(v)
		if len(got) != 1 || got[0] != want || a.bit(cs.value) != want {
			t.Errorf("coin waiters saw %v, tally holds %v, want %v", got, a.bit(cs.value), want)
		}
		a.withCoin(1, 1, func(v bool) { got = append(got, v) })
		if len(got) != 2 || got[1] != want {
			t.Errorf("a waiter arriving after the coin saw %v", got)
		}
	}
	return r
}

// TestShareCollector runs the one collect → combine machine through each
// of its users, on node 0 with the peers' shares handed in directly. Under
// every user, both coins included, an undecodable share, bare or full, is
// refused before anything is charged: one rejection, no CPU time.
//
// Under a scheme that sends its shares bare — the four signature users and
// the Decryptor — a corrupted bare share is held unverified and free; the
// combination of the last bare share it takes (the k-th, the Decryptor's
// (2k−1)-th) is charged the combine and the check of the value, fails,
// costs one rejection, drops the peers' shares but keeps this node's own
// counted, and turns the tally to proofs, where the own share goes on the
// air again in full, a bare share counts for nothing, an invalid full
// share is charged its verification and rejected, and honest full shares
// complete the tally. Under a scheme without a bare form — the CP coin —
// every share is verified, and a combination that fails drops every
// share.
func TestShareCollector(t *testing.T) {
	for _, u := range collectorUsers {
		t.Run(u.name, func(t *testing.T) {
			tn := newTestNet(t, 41, 0, true)
			env := tn.envs[0]
			rec := record(env)
			r := u.rig(t, tn)
			tn.settle(time.Second) // this node's own share is made and counted
			if r.held() != 1 || r.own() == nil {
				t.Fatalf("after release: %d shares held, own share %x", r.held(), r.own())
			}
			// offered hands in a share and reports the CPU time charged for
			// taking it (Exec books a job when it is posted) and, once the
			// job has run, the rejections it caused. A second of virtual
			// time passes, and no more: the Decryptor's wait for more bare
			// shares (bareWait) stays pending.
			offered := func(w int, flags uint8, raw []byte) (time.Duration, uint64) {
				busy, rej := env.CPU.BusyTotal(), env.T.Stats().Rejected
				r.offer(w, flags, raw)
				cost := env.CPU.BusyTotal() - busy
				tn.sched.RunFor(time.Second)
				return cost, env.T.Stats().Rejected - rej
			}
			good := r.peer(1)
			var full uint8 // the flags a full share goes with
			if r.bare {
				full = proofFlag
				bare := r.peerBare(1)
				if cost, rej := offered(1, 0, bare[:len(bare)-1]); cost != 0 || rej != 1 || r.held() != 1 {
					t.Errorf("undecodable bare share: charged %v, %d rejections, %d held", cost, rej, r.held())
				}
				corrupt := append([]byte(nil), bare...)
				corrupt[len(corrupt)-1] ^= 1
				var cost time.Duration
				var rej uint64
				for w := 1; w < r.kBare; w++ {
					raw := r.peerBare(w)
					if w == 1 {
						raw = corrupt
					}
					cost, rej = offered(w, 0, raw)
					if w < r.kBare-1 && (cost != 0 || rej != 0 || r.held() != w+1) {
						t.Errorf("bare share %d: charged %v, %d rejections, %d held", w, cost, rej, r.held())
					}
				}
				if cost != r.combineCost || rej != 1 {
					t.Errorf("last bare share: charged %v (want %v), %d rejections", cost, r.combineCost, rej)
				}
				if r.done() || r.held() != 1 || !r.proofs() || *r.combined != 0 {
					t.Fatalf("after a failed combination: done %v, %d held, proofs %v, %d callbacks",
						r.done(), r.held(), r.proofs(), *r.combined)
				}
				if last := rec.seen[len(rec.seen)-1]; last.Flags != proofFlag || !bytes.Equal(last.Data, r.own()) || len(last.Data) <= len(bare) {
					t.Errorf("own share after the failed combination: flags %d, %d B, kept %v", last.Flags, len(last.Data), bytes.Equal(last.Data, r.own()))
				}
				if cost, rej := offered(2, 0, r.peerBare(2)); cost != 0 || rej != 0 || r.held() != 1 {
					t.Errorf("bare share under proofs: charged %v, %d rejections, %d held", cost, rej, r.held())
				}
			}

			if cost, rej := offered(1, full, good[:len(good)/2]); cost != 0 || rej != 1 || r.held() != 1 {
				t.Errorf("undecodable share: charged %v, %d rejections, %d held", cost, rej, r.held())
			}
			bad := append([]byte(nil), good...)
			bad[len(bad)-1] ^= 1
			if cost, rej := offered(1, full, bad); cost != r.verifyCost || rej != 1 || r.held() != 1 {
				t.Errorf("invalid share: charged %v (want %v), %d rejections, %d held", cost, r.verifyCost, rej, r.held())
			}

			if !r.bare {
				// A combination that fails — k copies of one share — drops
				// every share, keeps the node's own beside them, and leaves
				// the tally collecting.
				r.poison()
				own := r.own()
				offered(1, 0, good)
				if r.done() || r.held() != 0 || *r.combined != 0 || !bytes.Equal(r.own(), own) {
					t.Fatalf("after a failed combination: done %v, %d held, %d callbacks, own share kept %v",
						r.done(), r.held(), *r.combined, bytes.Equal(r.own(), own))
				}
			}

			// It recovers from honest full shares; a sender's second copy
			// costs nothing and counts for nothing.
			held := r.held()
			if cost, _ := offered(1, full, good); cost != r.verifyCost || r.held() != held+1 {
				t.Errorf("first share after the reset: charged %v, %d held", cost, r.held())
			}
			if cost, rej := offered(1, full, good); cost != 0 || rej != 0 || r.held() != held+1 {
				t.Errorf("duplicate share: charged %v, %d rejections, %d held", cost, rej, r.held())
			}
			for w := 2; !r.done() && w < 4; w++ {
				offered(w, full, r.peer(w))
			}
			if !r.done() || *r.combined != 1 {
				t.Fatalf("did not recover: done %v, %d callbacks", r.done(), *r.combined)
			}
			r.check(t)

			// Once the value is set a share is not even verified.
			if cost, rej := offered(3, full, r.peer(3)); cost != 0 || rej != 0 || *r.combined != 1 {
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
				r.send(w)
				tn.settle(time.Second)
			}
			// The last share (its verification, if it is full) is queued
			// first, so its combination starts while the certificate is
			// being checked.
			busy := env.CPU.BusyTotal()
			r.send(3)
			r.offerCert(r.cert())
			tn.settle(time.Second)
			if r.held() != r.k || !r.done() || *r.combined != 1 {
				t.Fatalf("%d shares held, done %v, %d callbacks", r.held(), r.done(), *r.combined)
			}
			want := r.certCost + r.combineCost
			if !r.bare {
				want += r.verifyCost
			}
			if spent := env.CPU.BusyTotal() - busy; spent < want {
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
	p := NewPRBC(env, PRBCOptions{Slots: 4, OnProof: func(int, []byte) { proofs++ }})
	value := []byte("proven ahead of delivery")
	peers := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
		return sigScheme(env, false)
	})
	msg := p.doneMessage(1, HashValue(value))
	cert := certOf(peers, env.Suite.TSLow.K, msg)
	sh, err := peers[2].share(msg)
	if err != nil {
		t.Fatal(err)
	}
	busy := env.CPU.BusyTotal()
	p.dones.HandleSection(2, packet.Section{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Entries: []packet.Entry{{Slot: 1, Sub: 2, Data: EncodeSigShare(env.Suite.TSLow, sh)}}})
	p.dones.HandleSection(3, packet.Section{Kind: packet.KindPRBC, Phase: packet.PhaseDone, Entries: []packet.Entry{{Slot: 1, Sub: 3, Flags: certFlag, Data: cert}}})
	if env.CPU.BusyTotal() != busy || p.dones.tallies[1].done {
		t.Fatal("something was checked before the subject")
	}
	p.onRBCDeliver(1, value)
	cost := env.Suite.Cost
	if charged := env.CPU.BusyTotal() - busy; charged != cost.TSVerify+cost.TSSign {
		t.Errorf("delivery charged %v, want the proof's check and this node's share (%v)", charged, cost.TSVerify+cost.TSSign)
	}
	tn.settle(time.Second)
	if proofs != 1 || p.dones.tallies[1].nShares != 0 || !bytes.Equal(p.Proof(1), cert) {
		t.Fatalf("%d proofs, %d shares held, proof %x", proofs, p.dones.tallies[1].nShares, p.Proof(1))
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
// is the share intent its transport parked, which holds the value's
// certificate once there is one. For a coin, the ABA parks a round it has
// left behind (pruneRounds), and a peer whose row lost a bit asks for the
// round's share by sending its own (core.Transport's request): under the
// SC coin the certificate that took the share's place goes out (the
// collector's settle revised the intent), under the CP coin, which has no
// certificate, the node's share. A coin share released after the coin
// exists is never made: the certificate goes out in its place, and is
// what the parked intent serves. For the Decryptor, the transport parks
// the share once every peer's row confirmed the slot and brings it back
// when one clears the done bit.
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
		replayCoin(t, "SC", SigCoin, onAir)
		replayCoin(t, "CP", FlipCoin, onAir)
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

// replayCoin is TestOwnShareReplay's coin case, under one coin.
func replayCoin[S, V any](t *testing.T, name string, coin func(*Env) Coin[S, V], onAir func(*recorder, packet.Phase, uint16) []core.Intent) {
	tn := newTestNet(t, 43, 0, true)
	env := tn.envs[0]
	rec := record(env)
	a := NewCachinABA(env, coin(env), CachinOptions{Slots: 1})
	a.Input(0, true)
	peer := func(w int, round uint16) core.Intent {
		src := coin(tn.envs[w])
		sh, err := src.share(coinName(env.Session, env.Epoch, 0, round))
		if err != nil {
			t.Fatal(err)
		}
		return core.Intent{IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseShare, Sub: uint8(w), Round: round}, Data: src.encode(sh)}
	}
	// Peer 2 has no agreement of its own; it listens for node 0's
	// share entries by round.
	heard := map[uint16][]packet.Entry{}
	tn.envs[2].T.Register(packet.KindABA, core.HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			if from == 0 && sec.Phase == packet.PhaseShare {
				heard[e.Round] = append(heard[e.Round], packet.Entry{Flags: e.Flags, Data: bytes.Clone(e.Data)})
			}
		}
	}))
	// Rounds 3 and 6 are the first two that draw the threshold
	// coin. Round 3: node 0's share and peer 1's make the coin.
	a.releaseCoinShare(0, 3)
	a.handleCoinShare(0, 3, 1, 0, peer(1, 3).Data)
	tn.settle(time.Second)
	cs := a.coinState(coinKey{slot: 0, round: 3})
	if !cs.done {
		t.Fatalf("%s: round 3's coin was not made", name)
	}
	rounds := []uint16{3}
	if name == "SC" {
		// Round 6: two peers' shares combine before node 0's is
		// released. That share is never made — no CPU is charged —
		// and the certificate goes out in its place.
		rounds = append(rounds, 6)
		a.handleCoinShare(0, 6, 1, 0, peer(1, 6).Data)
		a.handleCoinShare(0, 6, 2, 0, peer(2, 6).Data)
		tn.settle(time.Second)
		busy := env.CPU.BusyTotal()
		a.releaseCoinShare(0, 6)
		if env.CPU.BusyTotal() != busy {
			t.Errorf("round 6: a share was made after the coin existed")
		}
		tn.settle(time.Second)
		cert := a.coinState(coinKey{slot: 0, round: 6}).cert
		got := onAir(rec, packet.PhaseShare, 6)
		if cert == nil || len(got) != 1 || got[0].Flags != certFlag || !bytes.Equal(got[0].Data, cert) {
			t.Fatalf("round 6: certificate %x, published %+v; want the certificate once", cert, got)
		}
	}
	// The node leaves the rounds behind.
	a.pruneRounds(0, 8)
	tn.settle(time.Minute)
	before := map[uint16]int{}
	for _, r := range rounds {
		before[r] = len(heard[r])
	}
	// Peer 1 comes back without the bit its row had shown, and
	// sends its shares of the rounds.
	done := packet.NewBitSet(4)
	done.Set(2)
	tn.envs[1].T.SetNack(packet.KindRBC, packet.PhaseEcho, done)
	tn.settle(5 * time.Second)
	tn.envs[1].T.SetNack(packet.KindRBC, packet.PhaseEcho, packet.NewBitSet(4))
	tn.settle(5 * time.Second)
	for _, r := range rounds {
		if n := len(heard[r]) - before[r]; n != 0 {
			t.Fatalf("%s: round %d's parked share went out %d times unasked", name, r, n)
		}
	}
	for _, r := range rounds {
		tn.envs[1].T.Update(peer(1, r))
	}
	tn.settle(2 * time.Second)
	for _, r := range rounds {
		got := onAir(rec, packet.PhaseShare, r)
		want := got[len(got)-1]
		if h := heard[r]; len(h) != before[r]+1 || h[before[r]].Flags != want.Flags || !bytes.Equal(h[before[r]].Data, want.Data) {
			t.Fatalf("%s: %d answers to the reborn peer's round-%d share, want one of the parked intent", name, len(h)-before[r], r)
		}
		if cert := a.coinState(coinKey{slot: 0, round: r}).cert; (cert != nil) != (name == "SC") || cert != nil && (want.Flags != certFlag || !bytes.Equal(want.Data, cert)) {
			t.Errorf("%s: round %d's certificate %x; the parked intent went out with flags %d", name, r, cert, want.Flags)
		}
	}
}
