package component

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/crypto/threshenc"
	"repro/internal/packet"
)

// decFuzzSeed is the deployment every FuzzDecryptorSection input runs in,
// and the one the seed corpus was recorded in, so recorded shares verify.
const decFuzzSeed = 37

// decFuzzCiphertexts are the deployment's four accepted proposals, one
// per slot, and their plaintexts: the same at every call for a testNet of
// decFuzzSeed.
func decFuzzCiphertexts(tb testing.TB, tn *testNet) ([]*threshenc.Ciphertext, [][]byte) {
	tb.Helper()
	cts, plains := make([]*threshenc.Ciphertext, 4), make([][]byte, 4)
	for slot := range cts {
		plains[slot] = []byte{'p', 'l', 'a', 'i', 'n', byte('0' + slot)}
		ct, err := tn.envs[slot].Suite.TE.Encrypt(plains[slot], tn.envs[slot].Rand)
		if err != nil {
			tb.Fatal(err)
		}
		cts[slot] = ct
	}
	return cts, plains
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

// decSeeds records an honest run, every node submitting every slot, and
// returns inputs built from its shares: shares ahead of the ciphertext and
// after it, a corrupted share before the genuine ones, a share claimed by
// another sender, one offered for another slot, a certificate-flagged
// entry, and a share under another phase.
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
				if d.Plaintext(slot) == nil {
					return false
				}
			}
		}
		return true
	})
	share := func(w, slot int, op byte) cbcRecord {
		return cbcRecord{op: op, from: byte(w), e: recs[w].entries(packet.PhaseDecShare, slot)[0]}
	}
	input := func(rs ...cbcRecord) []byte {
		var b []byte
		for _, r := range rs {
			b = r.append(b)
		}
		return b
	}
	corrupt := share(0, 0, 0)
	corrupt.e.Data = bytes.Clone(corrupt.e.Data)
	corrupt.e.Data[len(corrupt.e.Data)-1] ^= 1
	claimed := share(1, 0, decLater|decSubmit)
	claimed.from = 2
	elsewhere := share(0, 1, decLater|decSubmit)
	elsewhere.e.Slot = 2
	cert := share(1, 0, decLater|decSubmit)
	cert.e.Flags = certFlag
	return [][]byte{
		input(share(0, 0, 0), share(1, 0, 0), share(2, 0, decLater|decSubmit)),
		input(share(0, 1, decSubmit), share(1, 1, decLater)),
		input(share(0, 2, decLater), share(1, 3, decLater), share(2, 2, decLater|decSubmit), share(2, 3, decLater|decSubmit)),
		input(corrupt, share(1, 0, decLater|decSubmit), share(0, 0, decLater), share(2, 0, decLater)),
		input(claimed, elsewhere, cert, share(2, 0, decLater)),
		input(share(0, 0, decOther|decSubmit), share(1, 0, decLater|decOther)),
	}
}

// FuzzDecryptorSection feeds arbitrary DEC entries to one node whose
// peers run nothing but listen, and has it submit the ciphertexts the
// input names in between; the node keeps other state on the air from the
// start, as it would while its common subset runs. Nothing may panic, a
// slot's plaintext comes only from k shares that verify — a submitted
// slot, the plaintext encrypted, and shares from k-1 distinct peers in
// the input that verify under their sender's index, beside the node's own
// — and no frame of the node's carries a DEC NACK row before its first
// Submit.
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
		d := NewDecryptor(env, 4, nil)
		heard := hearDec(tn.envs[0], nil)
		busy(tn, env)
		submitted := [4]bool{}
		asking := false // the node has submitted a ciphertext
		// valid[slot] marks the peers that sent a share of slot's
		// ciphertext that verifies under the index of the sender.
		var valid [4][4]bool
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
			if r.op&decOther != 0 {
				phase = packet.PhaseEcho
			} else if int(r.e.Slot) < 4 && from != 3 && r.e.Flags&certFlag == 0 {
				if sh, err := DecodeDLShare(r.e.Data); err == nil && sh.Index == int(from)+1 && key.VerifyShare(cts[slot], sh) == nil {
					valid[slot][from] = true
				}
			}
			d.HandleSection(from, packet.Section{Kind: packet.KindDec, Phase: phase, Entries: []packet.Entry{r.e}})
		}
		tn.settle(time.Minute)
		check()
		for slot, p := range d.slots {
			if p == nil || p.value == nil {
				continue
			}
			peers := 0
			for _, ok := range valid[slot] {
				if ok {
					peers++
				}
			}
			switch {
			case !submitted[slot]:
				t.Fatalf("slot %d decrypted without its ciphertext", slot)
			case !bytes.Equal(p.value, plains[slot]):
				t.Fatalf("slot %d decrypted %q, want %q", slot, p.value, plains[slot])
			case peers < key.K-1:
				t.Fatalf("slot %d decrypted with %d peers' valid shares, want %d", slot, peers, key.K-1)
			}
		}
	})
}
