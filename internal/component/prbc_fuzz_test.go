package component

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// prbcFuzzSeed is the deployment every FuzzPRBCSection input runs in, and
// the one the seed corpus was recorded in, so recorded shares and proofs
// verify.
const prbcFuzzSeed = 35

// prbcPhases are the phases a FuzzPRBCSection record can carry: its RBC's
// three, then DONE. An input is a sequence of cbcRecords whose op's low
// two bits pick the phase and whose top bit lets a second of virtual time
// pass first.
var prbcPhases = []packet.Phase{packet.PhaseInitial, packet.PhaseEcho, packet.PhaseReady, packet.PhaseDone}

// prbcSeeds records an honest run, nodes 0–2 proposing slots 0–2, and
// returns inputs built from its traffic: a value, its votes and bare DONE
// shares; bare shares ahead of the value; a proof before the value and
// after it; a corrupted bare share that fails a combination with this
// node's own, and the full shares that complete the tally then; a forged
// full share ahead of the value, so this node's share is made under
// proofs; honest full shares; two values delivered and the later one's
// tally turned to proofs first, so a nonce drawn at proof time and not at
// share time would differ from the eager twin's; and a share claimed by
// another sender.
func prbcSeeds(f *testing.F) [][]byte {
	tn := newTestNet(f, prbcFuzzSeed, 0, true)
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = record(tn.envs[i])
	}
	nodes := make([]*PRBC, len(tn.envs))
	for i, env := range tn.envs {
		nodes[i] = NewPRBC(env, PRBCOptions{Slots: 4})
	}
	for i, p := range nodes[:3] {
		p.Propose(i, kernelValue(i, false))
	}
	tn.run(f, 30*time.Minute, func() bool {
		for _, p := range nodes {
			for slot := 0; slot < 3; slot++ {
				if p.Proof(slot) == nil {
					return false
				}
			}
		}
		return true
	})
	op := func(p packet.Phase) byte {
		for i, q := range prbcPhases {
			if q == p {
				return byte(i)
			}
		}
		panic("not a PRBC phase")
	}
	from := func(w int, p packet.Phase, slot int) []cbcRecord {
		var out []cbcRecord
		for _, e := range recs[w].entries(p, slot) {
			out = append(out, cbcRecord{op: op(p), from: byte(w), e: e})
		}
		return out
	}
	// votes is slot's value from its proposer and every ECHO and READY;
	// done is node w's first DONE entry of slot with the given flags.
	votes := func(slot int) []cbcRecord {
		out := from(slot, packet.PhaseInitial, slot)
		for _, p := range []packet.Phase{packet.PhaseEcho, packet.PhaseReady} {
			for w := range recs {
				out = append(out, from(w, p, slot)...)
			}
		}
		return out
	}
	done := func(w, slot int, flags uint8) []cbcRecord {
		for _, r := range from(w, packet.PhaseDone, slot) {
			if r.e.Flags == flags {
				return []cbcRecord{r}
			}
		}
		panic(fmt.Sprintf("node %d sent no DONE entry of slot %d with flags %d", w, slot, flags))
	}
	later := func(rs []cbcRecord) []cbcRecord {
		rs = append([]cbcRecord(nil), rs...)
		rs[0].op |= 0x80
		return rs
	}
	entry := func(w, slot int, flags uint8, data []byte) []cbcRecord {
		return []cbcRecord{{op: op(packet.PhaseDone), from: byte(w), e: packet.Entry{Slot: byte(slot), Sub: byte(w), Flags: flags, Data: data}}}
	}
	// full is node w's share of slot with its proof; forged its bare
	// share with a made-up proof behind it; corrupt its bare share with
	// X off.
	full := func(w, slot int) []cbcRecord {
		return entry(w, slot, proofFlag, EncodeSigShare(tn.envs[w].Suite.TSLow, nodes[w].dones.tallies[slot].mine.share))
	}
	forged := func(w, slot int) []cbcRecord {
		sh := *nodes[w].dones.tallies[slot].mine.share
		sh.C, sh.Z = big.NewInt(7), big.NewInt(9)
		return entry(w, slot, proofFlag, EncodeSigShare(tn.envs[w].Suite.TSLow, &sh))
	}
	corrupt := func(w, slot int) []cbcRecord {
		data := bytes.Clone(done(w, slot, 0)[0].e.Data)
		data[len(data)-1] ^= 1
		return entry(w, slot, 0, data)
	}
	claimed := done(1, 0, 0)
	claimed[0].from = 2
	input := func(rs ...[]cbcRecord) []byte {
		var b []byte
		for _, r := range rs {
			for _, x := range r {
				b = x.append(b)
			}
		}
		return b
	}
	return [][]byte{
		input(votes(0), later(done(0, 0, 0)), done(1, 0, 0)),
		input(done(0, 1, 0), done(2, 1, 0), later(votes(1))),
		input(done(1, 0, certFlag), votes(0)),
		input(votes(2), later(done(0, 2, certFlag))),
		input(votes(0), later(corrupt(1, 0)), later(full(0, 0)), full(2, 0)),
		input(forged(2, 0), votes(0), later(full(1, 0))),
		input(votes(1), later(full(0, 1)), full(2, 1)),
		input(votes(0), votes(1), later(corrupt(2, 1)), later(full(0, 1)), full(0, 0)),
		input(votes(0), later(claimed), done(2, 0, 0)),
	}
}

// prbcFuzzRun feeds one FuzzPRBCSection input to node 3's PRBC, whose
// peers run nothing but which keeps other state on the air, and returns
// every intent the node put up, in order. eager has the node make its
// DONE shares with their proofs, through threshsig's Sign.
//
// Checked on the way: no DONE share of the node's goes up in full before
// its tally turned to proofs; a slot has a proof only if it verifies over
// the slot's delivered value and came as a certificate or from k shares —
// the node's own and k-1 distinct peers' genuine ones; and, unless eager,
// the node's share of a tally that never turned to proofs was never
// proved.
func prbcFuzzRun(t *testing.T, raw []byte, eager bool) []core.Intent {
	tn := newTestNet(t, prbcFuzzSeed, 0, true)
	env := tn.envs[3]
	key := env.Suite.TSLow
	p := NewPRBC(env, PRBCOptions{Slots: 4})
	if eager {
		p.dones.share = func(msg []byte) (*threshsig.SigShare, error) {
			sh, err := env.Suite.Ops.Low.SignBare(env.Suite.TSLowShare, msg, env.Rand)
			if err == nil {
				sh.Prove()
			}
			return must(sh, err)
		}
	}
	var sent []core.Intent
	env.T.SetInterceptor(watch(func(in core.Intent) {
		in.Data = bytes.Clone(in.Data)
		sent = append(sent, in)
		if in.Kind == packet.KindPRBC && in.Flags&proofFlag != 0 && !p.dones.tallies[in.Slot].proofs {
			t.Fatalf("slot %d: this node's share went on the air in full before its tally turned to proofs", in.Slot)
		}
	}))
	busy(tn, env)
	// shares[slot][w] is every share entry peer w offered slot; certs[slot]
	// every certificate entry.
	var shares [4][3][][]byte
	var certs [4][][]byte
	for _, r := range parseCBCRecords(raw) {
		if r.op&0x80 != 0 {
			tn.settle(time.Second)
		}
		from := uint16(r.from % 4)
		phase := prbcPhases[int(r.op)%len(prbcPhases)]
		sec := packet.Section{Kind: packet.KindRBC, Phase: phase, Entries: []packet.Entry{r.e}}
		if phase != packet.PhaseDone {
			p.rbc.HandleSection(from, sec)
			continue
		}
		if slot := int(r.e.Slot); slot < 4 && from < 3 {
			if r.e.Flags&certFlag != 0 {
				certs[slot] = append(certs[slot], r.e.Data)
			} else {
				shares[slot][from] = append(shares[slot][from], r.e.Data)
			}
		}
		sec.Kind = packet.KindPRBC
		p.dones.HandleSection(from, sec)
	}
	tn.settle(time.Minute)
	for slot := range p.dones.tallies {
		tl := &p.dones.tallies[slot]
		if !eager && tl.mine.held && !tl.proofs && tl.mine.share.C != nil {
			t.Fatalf("slot %d: this node's share was proved, and its tally never turned to proofs", slot)
		}
		if !tl.done {
			continue
		}
		if !p.rbc.Delivered(slot) {
			t.Fatalf("slot %d has a proof and no delivered value", slot)
		}
		msg := p.doneMessage(slot, HashValue(p.rbc.Value(slot)))
		if err := key.Verify(msg, &threshsig.Signature{S: bigFromBytes(tl.value)}); err != nil {
			t.Fatalf("slot %d: proof does not verify over the delivered value: %v", slot, err)
		}
		certified := false
		for _, c := range certs[slot] {
			certified = certified || bytes.Equal(c, tl.value)
		}
		if certified {
			continue
		}
		peers := 0
		for w, offered := range shares[slot] {
			genuine, err := env.Suite.Ops.Low.SignBare(tn.envs[w].Suite.TSLowShare, msg, rand.New(rand.NewSource(0)))
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range offered {
				if sh, err := DecodeBareSigShare(data); err == nil && sh.Index == w+1 && sh.X.Cmp(genuine.X) == 0 {
					peers++
					break
				}
			}
		}
		if !tl.mine.held || peers < key.K-1 {
			t.Fatalf("slot %d combined with own share %v and %d peers' genuine shares, want %d", slot, tl.mine.held, peers, key.K-1)
		}
	}
	return sent
}

// FuzzPRBCSection feeds arbitrary RBC and DONE entries — DONE shares bare
// or full, and certificates — to one busy PRBC node (prbcFuzzRun's
// checks), and feeds them again to a twin that makes its shares with
// their proofs up front: the two must put up the same intents, in the
// same order, byte for byte. So a share proved late goes on the air as
// the one threshsig's Sign would have sent.
func FuzzPRBCSection(f *testing.F) {
	f.Add([]byte{})
	for _, in := range prbcSeeds(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, want := prbcFuzzRun(t, raw, false), prbcFuzzRun(t, raw, true)
		if len(got) != len(want) {
			t.Fatalf("put up %d intents, the eager twin %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.IntentKey != w.IntentKey || g.Flags != w.Flags || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("intent %d: %+v flags %d %x, the eager twin's %+v flags %d %x", i, g.IntentKey, g.Flags, g.Data, w.IntentKey, w.Flags, w.Data)
			}
		}
	})
}
