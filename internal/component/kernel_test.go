package component

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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

// newKernel builds one instance per node, wrapped as VCBC so the proof
// export is available whatever the wire kind.
func newKernel(tn *testNet, kind packet.Kind, small bool) []*VCBC {
	out := make([]*VCBC, len(tn.envs))
	for i, env := range tn.envs {
		out[i] = &VCBC{NewCBC(env, CBCOptions{Kind: kind, Slots: 4, Small: small})}
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
			finish := EncodeFinish(nodes[0].slots[0].certHash, nodes[0].slots[0].cert.sig)
			initial := leaderOut.entries(packet.PhaseInitial, 0)

			t.Run("proof transfers", func(t *testing.T) {
				// Same seed, same dealt keys: a node of a deployment that
				// never ran the broadcast.
				fresh := newKernel(newTestNet(t, seed, 0, true), k.kind, k.small)[2]
				proof := nodes[0].Proof(1)
				if proof == nil {
					t.Fatal("no proof for a delivered slot")
				}
				if err := fresh.VerifyProof(1, proof); err != nil {
					t.Fatalf("proof rejected by a node that never delivered: %v", err)
				}
				if fresh.VerifyProof(2, proof) == nil {
					t.Error("proof accepted for another slot")
				}
				p, _ := DecodeVCBCProof(proof)
				p.Slot = 2
				if fresh.VerifyProof(2, EncodeVCBCProof(p)) == nil {
					t.Error("proof re-labelled to another slot verified")
				}
				fresh.env.Epoch++
				if fresh.VerifyProof(1, proof) == nil {
					t.Error("proof accepted in another epoch")
				}
				fresh.env.Epoch--
				fresh.env.Session++
				if fresh.VerifyProof(1, proof) == nil {
					t.Error("proof accepted in another session")
				}
				for _, other := range kernelKinds {
					if other.kind == k.kind {
						continue
					}
					o := newKernel(newTestNet(t, seed, 0, true), other.kind, other.small)[2]
					if o.VerifyProof(1, proof) == nil {
						t.Errorf("%s proof accepted by a %s instance", k.name, other.name)
					}
				}
			})

			t.Run("fetch with the value in hand", func(t *testing.T) {
				// The leader restarts with amnesia and re-proposes the same
				// value (Alea's log replay). Its peers delivered long ago and
				// withdrew their ECHO shares, so no certificate can form.
				peers := []*recorder{record(tn.envs[1]), record(tn.envs[2]), record(tn.envs[3])}
				restarted := &VCBC{NewCBC(tn.envs[0], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})}
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
				restarted := &VCBC{NewCBC(tn.envs[0], CBCOptions{Kind: k.kind, Slots: 4, Small: k.small})}
				restarted.Propose(0, kernelValue(7, k.small))
				restarted.Fetch(0)
				tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return restarted.Delivered(0) })
				if !bytes.Equal(restarted.Value(0), kernelValue(0, k.small)) {
					t.Errorf("fetched %q, want the certified value", restarted.Value(0))
				}
			})

			// The remaining sub-tests drive one node of a fresh deployment
			// by hand, feeding it sections as its transport would.
			lone := func() (*testNet, *VCBC) {
				tn := newTestNet(t, seed, 0, true)
				return tn, newKernel(tn, k.kind, k.small)[3]
			}
			feed := func(v *VCBC, from int, phase packet.Phase, es ...packet.Entry) {
				v.HandleSection(uint16(from), packet.Section{Kind: k.kind, Phase: phase, Entries: es})
			}
			other := packet.Entry{Slot: 0, Flags: 1, Data: []byte("not what the quorum signed")}

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
	d := newDissemination(tn.envs[0], packet.KindRBC, false, frag)
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
		rbcs[i] = NewRBC(env, RBCOptions{Slots: 4, FragSize: frag})
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
	tn.run(t, 10*time.Minute, func() bool { return decs[0].Plaintext(0) != nil && len(decs[3].slots) == 1 })
	if decs[3].Plaintext(0) != nil {
		t.Fatal("decrypted without the ciphertext")
	}
	decs[3].Submit(0, ct)
	tn.run(t, tn.sched.Now()+10*time.Minute, func() bool { return decs[3].Plaintext(0) != nil })
	if !bytes.Equal(decs[3].Plaintext(0), plain) {
		t.Errorf("decrypted %q", decs[3].Plaintext(0))
	}
}
