package component

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/shamir"
	"repro/internal/crypto/threshenc"
	"repro/internal/packet"
)

// decFuzzSeed is the deployment every FuzzDecryptorSection input runs in,
// and the one the seed corpus was recorded in, so recorded shares verify.
const decFuzzSeed = 37

// decRefused is the slot whose ciphertext a Byzantine proposer made under
// another key: its tag holds, and no shares meet its key commitment.
const decRefused = 3

// decFuzzCiphertexts are the deployment's four accepted proposals, one
// per slot, and their plaintexts (nil for decRefused's): the same at every
// call for a testNet of decFuzzSeed.
func decFuzzCiphertexts(tb testing.TB, tn *testNet) ([]*threshenc.Ciphertext, [][]byte) {
	tb.Helper()
	cts, plains := make([]*threshenc.Ciphertext, 4), make([][]byte, 4)
	for slot := range cts {
		plain := []byte{'p', 'l', 'a', 'i', 'n', byte('0' + slot)}
		if slot == decRefused {
			cts[slot], _ = foreignCiphertext(tb, tn, plain, decFuzzSeed)
			continue
		}
		plains[slot] = plain
		ct, err := tn.envs[slot].Suite.TE.Encrypt(plain, tn.envs[slot].Rand)
		if err != nil {
			tb.Fatal(err)
		}
		cts[slot] = ct
	}
	return cts, plains
}

// foreignCiphertext encrypts plain under the threshold key of a deployment
// dealt apart from tn's, as a Byzantine proposer may, with randomness from
// seed, and returns the key it commits to beside it: the ciphertext's tag
// holds, so every node makes shares of it and they verify, but its key
// commitment is not tn's key's, so no honest shares meet it.
func foreignCiphertext(tb testing.TB, tn *testNet, plain []byte, seed int64) (*threshenc.Ciphertext, *big.Int) {
	tb.Helper()
	other, err := crypto.DealCached(len(tn.envs), tn.envs[0].F, crypto.LightConfig(), -1)
	if err != nil {
		tb.Fatal(err)
	}
	key := other[0].TE
	ct, err := key.Encrypt(plain, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	// Encrypt's first draw is the KEM nonce r; the key is VK^r.
	r, err := shamir.RandInt(rand.New(rand.NewSource(seed)), key.Group.Q)
	if err != nil {
		tb.Fatal(err)
	}
	return ct, key.ExpVK(r)
}

// steeredShare is the bare share of ct that Byzantine node b sends, ct
// committing to the key x, so that it and honest node j's share
// interpolate to x: two bare shares meeting the commitment would open ct
// at node j and nowhere else. It checks the construction against
// threshenc.Combine, which takes two shares unchecked.
func steeredShare(tb testing.TB, tn *testNet, ct *threshenc.Ciphertext, x *big.Int, j, b int) []byte {
	tb.Helper()
	key := tn.envs[0].Suite.TE
	if key.K != 2 {
		tb.Fatalf("steering is built for k = 2, not %d", key.K)
	}
	g := key.Group
	own, err := key.DecryptShareBare(tn.envs[j].Suite.TEShare, ct, rand.New(rand.NewSource(0)))
	if err != nil {
		tb.Fatal(err)
	}
	lag := shamir.LagrangeSet([]shamir.Share{{X: j + 1}, {X: b + 1}}, g.Q)
	v := g.Exp(g.Mul(x, g.Exp(own.V, new(big.Int).Sub(g.Q, lag[0]))), new(big.Int).ModInverse(lag[1], g.Q))
	sh := &threshenc.DecShare{Index: b + 1, V: v}
	if _, err := key.Combine(ct, []*threshenc.DecShare{own, sh}); err != nil {
		tb.Fatalf("steered share does not meet the commitment with node %d's: %v", j, err)
	}
	return EncodeBareDLShare(g, sh)
}

// A FuzzDecryptorSection input is a sequence of cbcRecords: op's top bit
// lets a second of virtual time pass first, its next bit has the node
// Submit the ciphertext of the entry's slot before the entry comes, and
// its low bit hands the entry in under a phase the Decryptor ignores.
const (
	decLater  = 0x80
	decSubmit = 0x40
	decOther  = 0x01
)

// decSeeds records a run of every node submitting every slot — decRefused
// is refused everywhere — and returns inputs built from its shares: bare
// shares ahead of the ciphertext and after it, a garbage bare share
// before the genuine ones, a share claimed by another sender, one offered
// for another slot, a certificate-flagged entry, a share under another
// phase, a garbage bare share followed by full ones, a forged full share,
// the refused slot's bare and full shares, and a share of the refused
// slot steered to meet its commitment with the fuzzed node's own, alone
// and among genuine ones.
func decSeeds(f *testing.F) [][]byte {
	tn := newTestNet(f, decFuzzSeed, 0, true)
	cts, _ := decFuzzCiphertexts(f, tn)
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = record(tn.envs[i])
	}
	decs := make([]*Decryptor, 4)
	for i, env := range tn.envs {
		decs[i] = NewDecryptor(env, 4, nil)
	}
	for _, d := range decs {
		for slot, ct := range cts {
			d.Submit(slot, ct)
		}
	}
	tn.run(f, 30*time.Minute, func() bool {
		for _, d := range decs {
			for slot := range cts {
				if !d.done.Get(slot) {
					return false
				}
			}
		}
		return true
	})
	// share is node w's first share of slot on the air, bare; full is its
	// share in full, as it goes on the air once the slot turns to proofs.
	share := func(w, slot int, op byte) cbcRecord {
		return cbcRecord{op: op, from: byte(w), e: recs[w].entries(packet.PhaseDecShare, slot)[0]}
	}
	full := func(w, slot int, op byte) cbcRecord {
		sh, err := tn.envs[w].Suite.Ops.Dec.DecryptShareBare(tn.envs[w].Suite.TEShare, cts[slot], rand.New(rand.NewSource(int64(w))))
		if err != nil {
			f.Fatal(err)
		}
		e := packet.Entry{Slot: uint8(slot), Sub: uint8(w), Flags: proofFlag, Data: EncodeDLShare(tn.envs[w].Suite.TE.Group, sh)}
		return cbcRecord{op: op, from: byte(w), e: e}
	}
	input := func(rs ...cbcRecord) []byte {
		var b []byte
		for _, r := range rs {
			b = r.append(b)
		}
		return b
	}
	garbage := func(r cbcRecord) cbcRecord {
		r.e.Data = bytes.Clone(r.e.Data)
		r.e.Data[len(r.e.Data)-1] ^= 1
		return r
	}
	claimed := share(1, 0, decLater|decSubmit)
	claimed.from = 2
	elsewhere := share(0, 1, decLater|decSubmit)
	elsewhere.e.Slot = 2
	cert := share(1, 0, decLater|decSubmit)
	cert.e.Flags = certFlag
	forged := share(0, 2, decSubmit)
	forged.e.Data = appendBig(appendBig(bytes.Clone(forged.e.Data), big.NewInt(7), 0), big.NewInt(9), 0)
	forged.e.Flags = proofFlag
	refusedCt, x := foreignCiphertext(f, tn, []byte{'p', 'l', 'a', 'i', 'n', byte('0' + decRefused)}, decFuzzSeed)
	steered := share(0, decRefused, decSubmit)
	steered.e.Data = steeredShare(f, tn, refusedCt, x, 3, 0)
	return [][]byte{
		input(share(0, 0, 0), share(1, 0, 0), share(2, 0, decLater|decSubmit)),
		input(share(0, 1, decSubmit), share(1, 1, decLater)),
		input(share(0, 2, decLater), share(1, 0, decLater), share(2, 2, decLater|decSubmit), share(2, 0, decLater|decSubmit)),
		input(garbage(share(0, 0, 0)), share(1, 0, decLater|decSubmit), share(0, 0, decLater), share(2, 0, decLater)),
		input(claimed, elsewhere, cert, share(2, 0, decLater)),
		input(share(0, 0, decOther|decSubmit), share(1, 0, decLater|decOther)),
		input(garbage(share(0, 1, decSubmit)), full(0, 1, decLater), full(2, 1, decLater)),
		input(forged, share(1, 2, decLater), full(1, 2, decLater)),
		input(share(0, decRefused, decSubmit), share(1, decRefused, decLater), full(0, decRefused, decLater), full(2, decRefused, decLater)),
		input(steered),
		input(steered, share(1, decRefused, decLater), full(1, decRefused, decLater), full(2, decRefused, decLater)),
	}
}

// FuzzDecryptorSection feeds arbitrary DEC entries to one node whose
// peers run nothing but listen, and has it submit the ciphertexts the
// input names in between; the node keeps other state on the air from the
// start, as it would while its common subset runs. Nothing may panic, and
// no frame of the node's carries a DEC NACK row before its first Submit.
// A slot settles only on what honest shares fix: submitted, and with k-1
// distinct peers' full shares in the input that verify, or 2k-2 peers'
// good shares — under their sender's index, bare with its sender's
// genuine value or full and verified — beside the node's own. A settled
// slot holds the plaintext encrypted, or, only if its ciphertext is
// decRefused's, none: garbage bare shares and forged full ones never
// refuse an honest ciphertext, and a share steered to meet decRefused's
// commitment never opens it.
func FuzzDecryptorSection(f *testing.F) {
	f.Add([]byte{})
	for _, in := range decSeeds(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tn := newTestNet(t, decFuzzSeed, 0, true)
		cts, plains := decFuzzCiphertexts(t, tn)
		env := tn.envs[3]
		key := env.Suite.TE
		// genuine[slot][w] is node w's share value of slot's ciphertext.
		var genuine [4][4]*big.Int
		for slot, ct := range cts {
			for w, peer := range tn.envs {
				sh, err := env.Suite.Ops.Dec.DecryptShareBare(peer.Suite.TEShare, ct, rand.New(rand.NewSource(0)))
				if err != nil {
					t.Fatal(err)
				}
				genuine[slot][w] = sh.V
			}
		}
		d := NewDecryptor(env, 4, nil)
		heard := hearDec(tn.envs[0], nil)
		busy(tn, env)
		submitted := [4]bool{}
		asking := false // the node has submitted a ciphertext
		// good[slot] marks the peers that sent a share of slot's
		// ciphertext under the index of the sender, bare with its genuine
		// value or full with a proof that verifies; proved marks the
		// latter.
		var good, proved [4][4]bool
		check := func() {
			if !asking && heard.rows[3] > 0 {
				t.Fatal("a DEC row went on the air before the first Submit")
			}
		}
		for _, r := range parseCBCRecords(raw) {
			if r.op&decLater != 0 {
				tn.settle(time.Second)
				check()
			}
			slot := int(r.e.Slot) % 4
			if r.op&decSubmit != 0 {
				asking, submitted[slot] = true, true
				d.Submit(slot, cts[slot])
			}
			from := uint16(r.from % 4)
			phase := packet.PhaseDecShare
			switch {
			case r.op&decOther != 0:
				phase = packet.PhaseEcho
			case int(r.e.Slot) >= 4 || from == 3 || r.e.Flags&certFlag != 0:
			case r.e.Flags&proofFlag != 0:
				if sh, err := DecodeDLShare(r.e.Data); err == nil && sh.Index == int(from)+1 && env.Suite.Ops.Dec.VerifyShare(cts[slot], sh) == nil {
					good[slot][from], proved[slot][from] = true, true
				}
			default:
				if sh, err := DecodeBareDLShare(r.e.Data); err == nil && sh.Index == int(from)+1 && sh.V.Cmp(genuine[slot][from]) == 0 {
					good[slot][from] = true
				}
			}
			d.HandleSection(from, packet.Section{Kind: packet.KindDec, Phase: phase, Entries: []packet.Entry{r.e}})
		}
		tn.settle(time.Minute)
		check()
		count := func(peers [4]bool) int {
			n := 0
			for _, ok := range peers {
				if ok {
					n++
				}
			}
			return n
		}
		for slot := range d.tallies {
			p := &d.tallies[slot]
			if !p.done {
				continue
			}
			switch {
			case !submitted[slot]:
				t.Fatalf("slot %d settled without its ciphertext", slot)
			case p.value == nil && slot != decRefused:
				t.Fatalf("slot %d's honest ciphertext refused", slot)
			case p.value != nil && !bytes.Equal(p.value, plains[slot]):
				t.Fatalf("slot %d decrypted %q, want %q", slot, p.value, plains[slot])
			case count(proved[slot]) < key.K-1 && count(good[slot]) < key.BareQuorum()-1:
				t.Fatalf("slot %d settled with %d peers' verified shares and %d good ones", slot, count(proved[slot]), count(good[slot]))
			}
		}
	})
}
