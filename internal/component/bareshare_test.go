package component

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
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

// fallbackRig is one signature user of the share collector run by all
// four nodes, seen through its tallies: how many it has and, for node i
// and tally k, whether the value exists, whether the tally turned to
// proofs, what the shares sign and the certificate (a signature user's
// value; the coin's certificate).
type fallbackRig struct {
	tallies int
	state   func(i, k int) (done, proofs bool, subject, cert []byte)
}

// fallbackUsers are the four users whose shares go bare: each is started
// on every node, and ours is the key its certificates verify under, the
// intent key its shares go on the air under, and which tally an intent is
// a share of.
var fallbackUsers = []struct {
	name  string
	kind  packet.Kind
	phase packet.Phase
	key   func(env *Env) *threshsig.PublicKey
	tally func(in core.Intent) int
	start func(tn *testNet) fallbackRig
}{
	{"cbc-certificate", packet.KindCBCValue, packet.PhaseEcho,
		func(env *Env) *threshsig.PublicKey { return env.Suite.TSHigh },
		func(in core.Intent) int { return int(in.Slot) },
		func(tn *testNet) fallbackRig {
			nodes := newKernel(tn, packet.KindCBCValue, true)
			for i, c := range nodes {
				c.Propose(i, kernelValue(i, true))
			}
			return fallbackRig{4, func(i, k int) (bool, bool, []byte, []byte) {
				t := &nodes[i].slots[k].cert
				return t.done, t.proofs, t.subject, t.value
			}}
		}},
	{"prbc-done-proof", packet.KindPRBC, packet.PhaseDone,
		func(env *Env) *threshsig.PublicKey { return env.Suite.TSLow },
		func(in core.Intent) int { return int(in.Slot) },
		func(tn *testNet) fallbackRig {
			var nodes []*PRBC
			for i, env := range tn.envs {
				nodes = append(nodes, NewPRBC(env, PRBCOptions{Slots: 4}))
				nodes[i].Propose(i, []byte(fmt.Sprintf("p-%d", i)))
			}
			return fallbackRig{4, func(i, k int) (bool, bool, []byte, []byte) {
				t := &nodes[i].slots[k].proof
				return t.done, t.proofs, t.subject, t.value
			}}
		}},
	{"cut-cert", packet.KindGlobal, packet.PhaseDone,
		func(env *Env) *threshsig.PublicKey { return env.Suite.TSLow },
		func(core.Intent) int { return 0 },
		func(tn *testNet) fallbackRig {
			var certs []*CutCert
			for _, env := range tn.envs {
				c := NewCutCert(env, func([]byte) {})
				env.T.Register(packet.KindGlobal, c)
				c.Begin([]byte("cut of cluster 1, epoch 3"))
				certs = append(certs, c)
			}
			return fallbackRig{1, func(i, _ int) (bool, bool, []byte, []byte) {
				t := &certs[i].cert
				return t.done, t.proofs, t.subject, t.value
			}}
		}},
	{"sig-coin", packet.KindABA, packet.PhaseShare,
		func(env *Env) *threshsig.PublicKey { return env.Suite.TSLow },
		func(in core.Intent) int { return int(in.Round)/3 - 1 },
		func(tn *testNet) fallbackRig {
			// The coins of rounds 3 and 6, the first two that are drawn.
			var abas []*CachinABA
			for _, env := range tn.envs {
				a := NewCachinABA(env, CachinOptions{Slots: 2, SharedCoin: true, Coin: SigCoin(env)})
				for _, round := range []uint16{3, 6} {
					a.withCoin(0, round, func(bool) {})
					a.releaseCoinShare(0, round)
				}
				abas = append(abas, a)
			}
			return fallbackRig{2, func(i, k int) (bool, bool, []byte, []byte) {
				t := &abas[i].coinState(coinKey{slot: sharedSlot, round: uint16(3 * (k + 1))}).tally
				return t.done, t.proofs, t.subject, t.cert
			}}
		}},
}

// TestBareShareFallback runs each signature user on all four nodes with
// node 3 Byzantine in how its shares of tally 0 go on the air, over seeds
// 1–20:
//   - garbage bare: its own index and a corrupted X. Taken unverified, it
//     fails the combinations it joins; the tally turns to proofs there and
//     completes from the honest full shares.
//   - forged full: a bare share with a made-up proof behind it, flagged
//     full. It is verified and rejected, and it turns tally 0 to proofs
//     wherever it comes before the value, and no other tally.
//
// Every honest node must get every tally's value, and the certificates
// must agree and verify; over the seeds, each attack must have turned some
// tally 0 to proofs.
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
			in.Data = appendBig(appendBig(append([]byte(nil), in.Data...), big.NewInt(7)), big.NewInt(9))
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
					r := u.start(tn)
					tn.run(t, 30*time.Minute, func() bool {
						for i := 0; i < 3; i++ {
							for k := 0; k < r.tallies; k++ {
								if done, _, _, _ := r.state(i, k); !done {
									return false
								}
							}
						}
						return true
					})
					for k := 0; k < r.tallies; k++ {
						_, _, subject, want := r.state(0, k)
						if err := u.key(tn.envs[0]).Verify(subject, &threshsig.Signature{S: bigFromBytes(want)}); err != nil {
							t.Errorf("%s, seed %d, tally %d: certificate does not verify: %v", a.name, seed, k, err)
						}
						for i := 0; i < 3; i++ {
							_, proofs, _, cert := r.state(i, k)
							if !bytes.Equal(cert, want) {
								t.Errorf("%s, seed %d, tally %d: nodes 0 and %d hold different certificates", a.name, seed, k, i)
							}
							if proofs && k != 0 {
								t.Errorf("%s, seed %d: node %d turned tally %d to proofs", a.name, seed, i, k)
							}
							if proofs && k == 0 {
								turned++
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

// rewrite is a core.Interceptor that passes every outbound intent through
// a function.
type rewrite func(core.Intent) core.Intent

func (r rewrite) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	return []core.Intent{r(in)}
}
