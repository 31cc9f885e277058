package component

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// replayRun is one run of a share collector's user on the component test
// net: nodes 0–2 run it, and node 3 runs nothing but re-sends under its
// own id every share node 0 puts on the air — as a share of the same
// kind (replay), or under a kind no node reads (the decoy: the same bytes
// on the air, read by nobody). It returns when the honest nodes are
// through, and how many entries they rejected by a few seconds later.
type replayRun func(t *testing.T, seed int64, replay bool) (took time.Duration, rejected uint64)

// replayShares has node 3 re-send node 0's shares of phase as its own,
// under kind or, as the decoy, under a kind none of the runs registers.
func replayShares(tn *testNet, kind packet.Kind, phase packet.Phase, replay bool) {
	tn.envs[0].T.SetInterceptor(watch(func(in core.Intent) {
		if in.Kind == kind && in.Phase == phase && in.Sub == 0 && in.Flags&certFlag == 0 {
			in.Sub = 3
			if !replay {
				in.Kind = packet.KindVCBC
			}
			tn.envs[3].T.Update(in)
		}
	}))
}

func honestRejections(tn *testNet) uint64 {
	var n uint64
	for _, env := range tn.envs[:3] {
		n += env.T.Stats().Rejected
	}
	return n
}

// cbcReplay: nodes 0–2 each propose a CBC slot; the run ends when all
// three have delivered all three.
func cbcReplay(t *testing.T, seed int64, replay bool) (time.Duration, uint64) {
	tn := newTestNet(t, seed, 0, true)
	var nodes []*CBC
	for _, env := range tn.envs[:3] {
		nodes = append(nodes, NewCBC(env, CBCOptions{Kind: packet.KindCBCValue, Slots: 4}))
	}
	replayShares(tn, packet.KindCBCValue, packet.PhaseEcho, replay)
	for i, c := range nodes {
		c.Propose(i, kernelValue(i, false))
	}
	tn.run(t, 30*time.Minute, func() bool {
		for _, c := range nodes {
			if c.DeliveredCount() < 3 {
				return false
			}
		}
		return true
	})
	took := tn.sched.Now()
	tn.settle(10 * time.Second)
	return took, honestRejections(tn)
}

// decReplay: nodes 0–2 open three ciphertexts; the run ends when all
// three have every plaintext.
func decReplay(t *testing.T, seed int64, replay bool) (time.Duration, uint64) {
	tn := newTestNet(t, seed, 0, true)
	var decs []*Decryptor
	for _, env := range tn.envs[:3] {
		decs = append(decs, NewDecryptor(env, 4, func(int, []byte) {}))
	}
	replayShares(tn, packet.KindDec, packet.PhaseDecShare, replay)
	for slot := 0; slot < 3; slot++ {
		ct, err := tn.envs[slot].Suite.TE.Encrypt([]byte(fmt.Sprintf("batch %d", slot)), tn.envs[slot].Rand)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decs {
			d.Submit(slot, ct)
		}
	}
	tn.run(t, 30*time.Minute, func() bool {
		for _, d := range decs {
			for slot := 0; slot < 3; slot++ {
				if d.Plaintext(slot) == nil {
					return false
				}
			}
		}
		return true
	})
	took := tn.sched.Now()
	tn.settle(10 * time.Second)
	return took, honestRejections(tn)
}

// TestShareIndexBoundToSender: a share's index names its maker, and a
// share whose index is not its sender's is rejected before anything is
// spent on it. Node 3 re-sends node 0's genuine shares — CBC's ECHO
// shares, and decryption shares — under its own id; the honest nodes must
// count the replays as rejections and get through at the very instant
// they do when node 3 puts the same bytes on the air where nobody reads
// them: the replay costs its airtime and nothing else. Taken as node 3's,
// a replayed share would meet node 0's own in a combination, fail it for
// the duplicate index, and cost the shares gathered with it.
func TestShareIndexBoundToSender(t *testing.T) {
	seeds := []int64{101, 102, 103, 104, 105, 106}
	for _, u := range []struct {
		name string
		run  replayRun
	}{{"cbc", cbcReplay}, {"decryption", decReplay}} {
		t.Run(u.name, func(t *testing.T) {
			for _, seed := range seeds {
				decoy, _ := u.run(t, seed, false)
				took, rejected := u.run(t, seed, true)
				t.Logf("seed %d: %v with node 3 replaying, %v with the decoy, %d rejected", seed, took, decoy, rejected)
				if rejected == 0 {
					t.Errorf("seed %d: no replayed share was rejected", seed)
				}
				if took != decoy {
					t.Errorf("seed %d: %v with node 3 replaying, against %v with the decoy", seed, took, decoy)
				}
			}
		})
	}
}

// fallbackRig is one user of the share collector run by all four nodes,
// seen through its tallies: how many it has and, for node i and tally k,
// whether the tally settled, whether it turned to proofs, and its value
// (a signature user's certificate, the coin's certificate, a plaintext);
// verify checks a tally's value, and refused names the tally whose subject
// has no value (-1: none).
type fallbackRig struct {
	tallies int
	state   func(i, k int) (done, proofs bool, value []byte)
	verify  func(k int, value []byte) error
	refused int
}

// sigRig is a signature user's fallbackRig: subject(i, k) is what node i's
// tally k signs, and a value must verify under key as a signature of it.
func sigRig[S, V any](key *threshsig.PublicKey, tallies int, tally func(i, k int) (t *tally[[]byte, S, V], cert []byte)) fallbackRig {
	return fallbackRig{
		tallies: tallies,
		state: func(i, k int) (bool, bool, []byte) {
			t, cert := tally(i, k)
			return t.done, t.proofs, cert
		},
		verify: func(k int, value []byte) error {
			t, _ := tally(0, k)
			return key.Verify(t.subject, &threshsig.Signature{S: bigFromBytes(value)})
		},
		refused: -1,
	}
}

// fallbackUsers are the users whose shares go bare: each is started on
// every node, and the intent key its shares go on the air under names
// which tally an intent is a share of.
var fallbackUsers = []struct {
	name  string
	kind  packet.Kind
	phase packet.Phase
	tally func(in core.Intent) int
	start func(t *testing.T, tn *testNet) fallbackRig
}{
	{"cbc-certificate", packet.KindCBCValue, packet.PhaseEcho,
		func(in core.Intent) int { return int(in.Slot) },
		func(t *testing.T, tn *testNet) fallbackRig {
			nodes := newKernel(tn, packet.KindCBCValue, true)
			for i, c := range nodes {
				c.Propose(i, kernelValue(i, true))
			}
			return sigRig(tn.envs[0].Suite.TSHigh, 4, func(i, k int) (*tally[[]byte, *threshsig.SigShare, []byte], []byte) {
				t := &nodes[i].slots[k].cert
				return t, t.value
			})
		}},
	{"prbc-done-proof", packet.KindPRBC, packet.PhaseDone,
		func(in core.Intent) int { return int(in.Slot) },
		func(t *testing.T, tn *testNet) fallbackRig {
			var nodes []*PRBC
			for i, env := range tn.envs {
				nodes = append(nodes, NewPRBC(env, PRBCOptions{Slots: 4}))
				nodes[i].Propose(i, []byte(fmt.Sprintf("p-%d", i)))
			}
			return sigRig(tn.envs[0].Suite.TSLow, 4, func(i, k int) (*tally[[]byte, *threshsig.SigShare, []byte], []byte) {
				t := &nodes[i].dones.tallies[k]
				return t, t.value
			})
		}},
	{"cut-cert", packet.KindGlobal, packet.PhaseDone,
		func(core.Intent) int { return 0 },
		func(t *testing.T, tn *testNet) fallbackRig {
			var certs []*CutCert
			for _, env := range tn.envs {
				c := NewCutCert(env, func([]byte) {})
				env.T.Register(packet.KindGlobal, c)
				c.Begin([]byte("cut of cluster 1, epoch 3"))
				certs = append(certs, c)
			}
			return sigRig(tn.envs[0].Suite.TSLow, 1, func(i, _ int) (*tally[[]byte, *threshsig.SigShare, []byte], []byte) {
				t := &certs[i].tallies[0]
				return t, t.value
			})
		}},
	{"sig-coin", packet.KindABA, packet.PhaseShare,
		func(in core.Intent) int { return int(in.Round)/3 - 1 },
		func(t *testing.T, tn *testNet) fallbackRig {
			// The coins of rounds 3 and 6, the first two that are drawn.
			var abas []*sigABA
			for _, env := range tn.envs {
				a := NewCachinABA(env, SigCoin(env), CachinOptions{Slots: 2, SharedCoin: true})
				for _, round := range []uint16{3, 6} {
					a.withCoin(0, round, func(bool) {})
					a.releaseCoinShare(0, round)
				}
				abas = append(abas, a)
			}
			return sigRig(tn.envs[0].Suite.TSLow, 2, func(i, k int) (*tally[[]byte, *threshsig.SigShare, []byte], []byte) {
				t := &abas[i].coinState(coinKey{slot: sharedSlot, round: uint16(3 * (k + 1))}).tally
				return t, t.cert
			})
		}},
	// Nodes 0–2 each propose an honest ciphertext; node 3's is made under
	// another key, so its commitment no shares meet.
	{"decryption", packet.KindDec, packet.PhaseDecShare,
		func(in core.Intent) int { return int(in.Slot) },
		func(t *testing.T, tn *testNet) fallbackRig {
			cts, plains := make([]*threshenc.Ciphertext, 4), make([][]byte, 4)
			for slot, env := range tn.envs {
				plain := []byte(fmt.Sprintf("batch of node %d", slot))
				if slot == 3 {
					cts[slot], _ = foreignCiphertext(t, tn, plain, int64(slot))
					continue
				}
				ct, err := env.Suite.TE.Encrypt(plain, env.Rand)
				if err != nil {
					t.Fatal(err)
				}
				cts[slot], plains[slot] = ct, plain
			}
			var decs []*Decryptor
			for _, env := range tn.envs {
				d := NewDecryptor(env, 4, nil)
				for slot, ct := range cts {
					d.Submit(slot, ct)
				}
				decs = append(decs, d)
			}
			return fallbackRig{
				tallies: 4,
				state: func(i, k int) (bool, bool, []byte) {
					s := &decs[i].tallies[k]
					return s.done, s.proofs, s.value
				},
				verify: func(k int, value []byte) error {
					if !bytes.Equal(value, plains[k]) {
						return fmt.Errorf("plaintext %q, want %q", value, plains[k])
					}
					return nil
				},
				refused: 3,
			}
		}},
}

// TestBareShareFallback runs each user whose shares go bare on all four
// nodes with node 3 Byzantine in how its shares of tally 0 go on the air,
// over seeds 1–20:
//   - garbage bare: its own index and a corrupted value. Taken
//     unverified, it fails the combinations it joins; the tally turns to
//     proofs there and completes from the honest full shares.
//   - forged full: a bare share with a made-up proof behind it, flagged
//     full. It is verified and rejected, and it turns tally 0 to proofs
//     wherever it comes before the value, and no other tally.
//
// Every honest node must get every tally's value, and the values must
// agree and check; over the seeds, each attack must have turned some
// tally 0 to proofs. Under decryption node 3 is also a Byzantine
// proposer: its ciphertext, tally 3, is made under another key. Every
// honest node must refuse it (a nil plaintext) and count a rejection,
// and still settle every other tally.
func TestBareShareFallback(t *testing.T) {
	attacks := []struct {
		name    string
		rewrite func(in core.Intent) core.Intent
	}{
		{"garbage-bare", func(in core.Intent) core.Intent {
			in.Data = append([]byte(nil), in.Data...)
			in.Data[len(in.Data)-1] ^= 0x5A
			return in
		}},
		{"forged-full", func(in core.Intent) core.Intent {
			in.Data = appendBig(appendBig(append([]byte(nil), in.Data...), big.NewInt(7), 0), big.NewInt(9), 0)
			in.Flags = proofFlag
			return in
		}},
	}
	for _, u := range fallbackUsers {
		t.Run(u.name, func(t *testing.T) {
			for _, a := range attacks {
				var turned, rejected int
				for seed := int64(1); seed <= 20; seed++ {
					tn := newTestNet(t, seed, 0, true)
					tn.envs[3].T.SetInterceptor(rewrite(func(in core.Intent) core.Intent {
						if in.Kind != u.kind || in.Phase != u.phase || in.Flags != 0 || u.tally(in) != 0 {
							return in
						}
						return a.rewrite(in)
					}))
					r := u.start(t, tn)
					tn.run(t, 30*time.Minute, func() bool {
						for i := 0; i < 3; i++ {
							for k := 0; k < r.tallies; k++ {
								if done, _, _ := r.state(i, k); !done {
									return false
								}
							}
						}
						return true
					})
					for k := 0; k < r.tallies; k++ {
						_, _, want := r.state(0, k)
						if err := r.verify(k, want); err != nil {
							t.Errorf("%s, seed %d, tally %d: %v", a.name, seed, k, err)
						}
						for i := 0; i < 3; i++ {
							_, proofs, value := r.state(i, k)
							switch {
							case !bytes.Equal(value, want):
								t.Errorf("%s, seed %d, tally %d: nodes 0 and %d hold different values", a.name, seed, k, i)
							case k == r.refused:
							case proofs && k != 0:
								t.Errorf("%s, seed %d: node %d turned tally %d to proofs", a.name, seed, i, k)
							case proofs:
								turned++
							}
						}
					}
					if r.refused >= 0 {
						for i, env := range tn.envs[:3] {
							if env.T.Stats().Rejected == 0 {
								t.Errorf("%s, seed %d: node %d refused tally %d and counted no rejection", a.name, seed, i, r.refused)
							}
						}
					}
					rejected += int(honestRejections(tn))
				}
				t.Logf("%s: tally 0 turned to proofs at %d of 60 honest nodes, %d rejections", a.name, turned, rejected)
				if turned == 0 || rejected == 0 {
					t.Errorf("%s: tally 0 turned to proofs at %d honest nodes, %d rejections, over 20 seeds", a.name, turned, rejected)
				}
			}
		})
	}
}

// TestSteeredShareRefusedAlike: node 3 is a Byzantine proposer whose
// ciphertext, slot 3, commits to a key of its choosing, and its bare share
// of slot 3 is steered so that it and node j's share interpolate to that
// key (j cycles over the honest nodes with the seed). Were two bare shares
// enough, node j would open slot 3 and the other honest nodes refuse it.
// Every honest node must open slots 0–2, refuse slot 3 with a rejection
// counted, and so hold the same output for every slot.
func TestSteeredShareRefusedAlike(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		j := int(seed % 3)
		tn := newTestNet(t, seed, 0, true)
		cts, plains := make([]*threshenc.Ciphertext, 4), make([][]byte, 4)
		for slot, env := range tn.envs[:3] {
			plains[slot] = []byte(fmt.Sprintf("batch of node %d", slot))
			ct, err := env.Suite.TE.Encrypt(plains[slot], env.Rand)
			if err != nil {
				t.Fatal(err)
			}
			cts[slot] = ct
		}
		var x *big.Int
		cts[3], x = foreignCiphertext(t, tn, []byte("steered batch"), seed)
		steered := steeredShare(t, tn, cts[3], x, j, 3)
		tn.envs[3].T.SetInterceptor(rewrite(func(in core.Intent) core.Intent {
			if in.Kind == packet.KindDec && in.Phase == packet.PhaseDecShare && in.Slot == 3 && in.Flags == 0 {
				in.Data = steered
			}
			return in
		}))
		var decs []*Decryptor
		for _, env := range tn.envs {
			d := NewDecryptor(env, 4, nil)
			for slot, ct := range cts {
				d.Submit(slot, ct)
			}
			decs = append(decs, d)
		}
		tn.run(t, 30*time.Minute, func() bool {
			for _, d := range decs[:3] {
				for slot := range cts {
					if !d.done.Get(slot) {
						return false
					}
				}
			}
			return true
		})
		for i, d := range decs[:3] {
			for slot, plain := range plains {
				if got := d.Plaintext(slot); !bytes.Equal(got, plain) {
					t.Errorf("seed %d, steered toward node %d: node %d holds %q for slot %d, want %q", seed, j, i, got, slot, plain)
				}
			}
			if tn.envs[i].T.Stats().Rejected == 0 {
				t.Errorf("seed %d: node %d refused slot 3 and counted no rejection", seed, i)
			}
		}
	}
}

// TestBareWaitFallsBack: a decryption tally that holds k bare shares waits
// bareWait for the 2k−1 a bare combination takes — its other peers may
// have crashed after they combined, keeping no share to re-send
// (TestChurnRecovery) — and then turns to proofs, puts this node's share
// on the air in full, and completes from k verified shares. A bare share
// that comes meanwhile has the full share re-sent, at most once per base
// period.
func TestBareWaitFallsBack(t *testing.T) {
	tn := newTestNet(t, 43, 0, true)
	rec := record(tn.envs[0])
	var r collectorRig
	for _, u := range collectorUsers {
		if u.name == "decryptor" {
			r = u.rig(t, tn)
		}
	}
	tn.sched.RunFor(time.Second) // this node's own share is made and counted
	r.offer(1, 0, r.peerBare(1))
	tn.sched.RunFor(bareWait - time.Millisecond)
	if r.held() != 2 || r.proofs() {
		t.Fatalf("before bareWait: %d held, proofs %v; want 2 bare shares waiting", r.held(), r.proofs())
	}
	tn.sched.RunFor(time.Millisecond)
	if r.held() != 1 || !r.proofs() {
		t.Fatalf("at bareWait: %d held, proofs %v; want the own share alone, in proofs", r.held(), r.proofs())
	}
	sent := len(rec.seen)
	if last := rec.seen[sent-1]; last.Flags != proofFlag || !bytes.Equal(last.Data, r.own()) {
		t.Errorf("own share after the wait: flags %d, kept %v; want it in full", last.Flags, bytes.Equal(last.Data, r.own()))
	}
	for i := 0; i < 3; i++ {
		r.offer(2, 0, r.peerBare(2))
	}
	if got := len(rec.seen) - sent; got != 1 {
		t.Errorf("three bare shares within a base period re-sent the full share %d times, want once", got)
	}
	tn.sched.RunFor(resendEvery)
	r.offer(2, 0, r.peerBare(2))
	if got := len(rec.seen) - sent; got != 2 {
		t.Errorf("a bare share a base period later: %d re-sends in all, want 2", got)
	}
	r.offer(1, proofFlag, r.peer(1))
	tn.sched.RunFor(time.Second)
	if !r.done() || *r.combined != 1 {
		t.Fatalf("did not complete from verified shares: done %v, %d callbacks", r.done(), *r.combined)
	}
	r.check(t)
}

// rewrite is a core.Interceptor that passes every outbound intent through
// a function.
type rewrite func(core.Intent) core.Intent

func (r rewrite) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	return []core.Intent{r(in)}
}
