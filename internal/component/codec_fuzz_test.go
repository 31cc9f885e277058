package component

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/dleq"
	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/group"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// FuzzShareCodec feeds arbitrary bytes to the one threshold-share wire
// codec through both share types that ride it, full and bare. No decoder
// may panic, and whatever decodes re-encodes to a canonical form, each
// field at its width or at its own length if that is longer: decoding
// that form gives the same share, and encoding that share gives the same
// bytes (leading zeros and trailing bytes of the input are not preserved,
// the value is). A full share's bytes also decode bare, to its index and
// X, and the two bare forms are one where the two values' widths are
// (TS-512's X and SG-512's V, both 64 bytes).
func FuzzShareCodec(f *testing.F) {
	fix, err := threshsig.FixtureByName("TS-512")
	if err != nil {
		f.Fatal(err)
	}
	pk := &threshsig.PublicKey{N: new(big.Int).Mul(fix.P, fix.Q)}
	g, err := group.ByName("SG-512")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 1, 7, 0, 1, 8, 0, 1, 9})
	f.Add([]byte{2, 0, 2, 0, 7, 0, 0, 0, 3, 1, 2, 3, 0xFF}) // leading zero, empty int, trailing byte
	f.Add([]byte{3, 0xFF, 0xFF, 1})                         // length past the end
	f.Add(EncodeDLShare(g, &dlthresh.Share{Index: 4, V: big.NewInt(1 << 40), Proof: &dleq.Proof{C: big.NewInt(5), Z: new(big.Int)}}))
	f.Add(EncodeBareSigShare(pk, &threshsig.SigShare{Index: 3, X: big.NewInt(1 << 50)}))
	f.Add(EncodeSigShare(pk, &threshsig.SigShare{Index: 2, X: new(big.Int).Lsh(big.NewInt(1), 600), C: big.NewInt(1), Z: big.NewInt(2)}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		bare, bareErr := DecodeBareSigShare(raw)
		if bareErr == nil {
			canon := EncodeBareSigShare(pk, bare)
			again, err := DecodeBareSigShare(canon)
			if err != nil || again.Index != bare.Index || again.X.Cmp(bare.X) != 0 || again.C != nil || again.Z != nil {
				t.Fatalf("bare share changed across encode/decode: %+v vs %+v (%v)", bare, again, err)
			}
			if want := 3 + max(sigWidths(pk)[0], (bare.X.BitLen()+7)/8); len(canon) != want {
				t.Fatalf("canonical bare form is %d B, its widths make %d", len(canon), want)
			}
		}
		bareDL, bareDLErr := DecodeBareDLShare(raw)
		if (bareErr == nil) != (bareDLErr == nil) {
			t.Fatalf("one bare shape, two verdicts: sig %v, dl %v", bareErr, bareDLErr)
		}
		if bareErr == nil && (bareDL.Index != bare.Index || bareDL.V.Cmp(bare.X) != 0 || bareDL.Proof != nil ||
			!bytes.Equal(EncodeBareDLShare(g, bareDL), EncodeBareSigShare(pk, bare))) {
			t.Fatalf("the two bare share types differ on one input: %+v vs %+v", bare, bareDL)
		}
		sig, sigErr := DecodeSigShare(raw)
		if sigErr == nil && (bareErr != nil || bare.Index != sig.Index || bare.X.Cmp(sig.X) != 0) {
			t.Fatalf("full share %+v decodes bare to %+v (%v)", sig, bare, bareErr)
		}
		dl, dlErr := DecodeDLShare(raw)
		if (sigErr == nil) != (dlErr == nil) {
			t.Fatalf("one shape, two verdicts: sig %v, dl %v", sigErr, dlErr)
		}
		if sigErr != nil {
			return
		}
		if dl.Index != sig.Index || dl.V.Cmp(sig.X) != 0 || dl.Proof.C.Cmp(sig.C) != 0 || dl.Proof.Z.Cmp(sig.Z) != 0 {
			t.Fatalf("the two share types decode one input differently: %+v vs %+v", sig, dl)
		}
		canon := EncodeSigShare(pk, sig)
		sig2, err := DecodeSigShare(canon)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		if !sameSigShare(sig, sig2) {
			t.Fatalf("share changed across encode/decode: %+v vs %+v", sig, sig2)
		}
		if again := EncodeSigShare(pk, sig2); !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n %x\n %x", canon, again)
		}
	})
}

func sameSigShare(a, b *threshsig.SigShare) bool {
	return a.Index == b.Index && a.X.Cmp(b.X) == 0 && a.C.Cmp(b.C) == 0 && a.Z.Cmp(b.Z) == 0
}

// FuzzCertEntry offers arbitrary bytes as a certificate entry to the two
// tallies whose value is transferable: an SC coin and a PRBC DONE proof,
// each both open and, through begin, parked ahead of its subject. Nothing
// may panic, and a tally settles only on the combined signature's
// canonical bytes.
func FuzzCertEntry(f *testing.F) {
	tn := newTestNet(f, 46, 0, true)
	env := tn.envs[0]
	coinName := coinName(env.Session, env.Epoch, sharedSlot, 1)
	proofMsg := []byte("prbc-done proof subject")
	coins := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] { return SigCoin(env).scheme })
	dones := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
		return sigScheme(env, false)
	})
	coinCert := certOf(coins, env.Suite.TSLow.K, coinName)
	proofCert := certOf(dones, env.Suite.TSLow.K, proofMsg)
	f.Add([]byte{})
	f.Add(coinCert)
	f.Add(proofCert)
	f.Add(append([]byte{0}, coinCert...)) // leading zero
	f.Add(coinCert[:len(coinCert)-1])
	f.Add(certOf(coins, env.Suite.TSLow.K, coinName[:len(coinName)-1]))
	f.Fuzz(func(t *testing.T, raw []byte) {
		coin := collector[[]byte, *threshsig.SigShare, []byte]{scheme: coins[0], env: env, combined: func(int, []byte) {}}
		done := collector[[]byte, *threshsig.SigShare, []byte]{scheme: dones[0], env: env, combined: func(int, []byte) {}}
		var openCoin, parkedCoin tally[[]byte, *threshsig.SigShare, []byte]
		var openProof, parkedProof tally[[]byte, *threshsig.SigShare, []byte]
		openCoin.subject, openCoin.open = coinName, true
		openProof.subject, openProof.open = proofMsg, true
		key := core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone}
		coin.offer(&openCoin, 0, 1, certFlag, raw)
		coin.offer(&parkedCoin, 1, 1, certFlag, raw)
		coin.begin(&parkedCoin, 1, coinName, key)
		done.offer(&openProof, 0, 1, certFlag, raw)
		done.offer(&parkedProof, 1, 1, certFlag, raw)
		done.begin(&parkedProof, 1, proofMsg, key)
		tn.settle(time.Second)
		for _, c := range []struct {
			name    string
			settled bool
			want    []byte
		}{
			{"open coin", openCoin.done, coinCert}, {"parked coin", parkedCoin.done, coinCert},
			{"open proof", openProof.done, proofCert}, {"parked proof", parkedProof.done, proofCert},
		} {
			if c.settled != bytes.Equal(raw, c.want) {
				t.Fatalf("%s: settled %v on %x", c.name, c.settled, raw)
			}
		}
	})
}

// shareRecord is one entry of a FuzzShareEntry input: on the wire of the
// input, flags, sender and a big-endian uint16 length, then that many
// bytes of data.
type shareRecord struct {
	flags, from byte
	data        []byte
}

func (r shareRecord) append(b []byte) []byte {
	b = append(b, r.flags, r.from)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.data)))
	return append(b, r.data...)
}

func parseShareRecords(raw []byte) []shareRecord {
	var out []shareRecord
	for len(raw) >= 4 {
		r := shareRecord{flags: raw[0], from: raw[1]}
		n := min(int(binary.BigEndian.Uint16(raw[2:4])), len(raw)-4)
		r.data, raw = raw[4:4+n], raw[4+n:]
		out = append(out, r)
	}
	return out
}

// offerRecords hands the records to a tally on node 0, from peers 1–3,
// letting the charged work of each finish before the next.
func offerRecords[X, S, V any](tn *testNet, c *collector[X, S, V], t *tally[X, S, V], recs []shareRecord) {
	for _, r := range recs {
		c.offer(t, 0, 1+int(r.from)%3, r.flags, r.data)
		tn.settle(time.Second)
	}
}

// FuzzShareEntry offers arbitrary share entries — bare, full or a
// certificate, as each one's flags say — to the two tallies whose shares
// go bare and whose value has one fixed encoding: an SC coin and a PRBC
// DONE proof, each with node 0's own share in. Nothing may panic, and a
// tally settles only on the one signature of its subject, which verifies.
func FuzzShareEntry(f *testing.F) {
	tn := newTestNet(f, 47, 0, true)
	env := tn.envs[0]
	coinName := coinName(env.Session, env.Epoch, sharedSlot, 3)
	proofMsg := []byte("prbc-done proof subject")
	coins := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] { return SigCoin(env).scheme })
	dones := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
		return sigScheme(env, false)
	})
	coinCert := certOf(coins, env.Suite.TSLow.K, coinName)
	proofCert := certOf(dones, env.Suite.TSLow.K, proofMsg)
	input := func(rs ...shareRecord) []byte {
		var b []byte
		for _, r := range rs {
			b = r.append(b)
		}
		return b
	}
	for w := byte(1); w <= 2; w++ {
		sh, err := dones[w].share(proofMsg)
		if err != nil {
			f.Fatal(err)
		}
		bare, full := dones[w].bare(sh), dones[w].encode(sh)
		corrupt := append([]byte(nil), bare...)
		corrupt[len(corrupt)-1] ^= 1
		forged := *sh
		forged.C, forged.Z = big.NewInt(7), big.NewInt(9)
		f.Add(input(shareRecord{0, w - 1, bare}))
		f.Add(input(shareRecord{proofFlag, w - 1, full}))
		f.Add(input(shareRecord{0, w - 1, corrupt}, shareRecord{proofFlag, w - 1, full}))
		f.Add(input(shareRecord{proofFlag, w - 1, dones[w].encode(&forged)}, shareRecord{0, w - 1, bare}))
		f.Add(input(shareRecord{0, w, bare}))
	}
	for w := byte(1); w <= 2; w++ {
		sh, err := coins[w].share(coinName)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(input(shareRecord{0, w - 1, coins[w].bare(sh)}))
		f.Add(input(shareRecord{proofFlag, w - 1, coins[w].encode(sh)}))
	}
	f.Add(input(shareRecord{certFlag, 0, proofCert}))
	f.Add(input(shareRecord{certFlag, 0, coinCert}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs := parseShareRecords(raw)
		key := core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone}
		coin := collector[[]byte, *threshsig.SigShare, []byte]{scheme: coins[0], env: env, combined: func(int, []byte) {}}
		var coinTally tally[[]byte, *threshsig.SigShare, []byte]
		coin.begin(&coinTally, 0, coinName, key)
		tn.settle(time.Second)
		offerRecords(tn, &coin, &coinTally, recs)
		done := collector[[]byte, *threshsig.SigShare, []byte]{scheme: dones[0], env: env, combined: func(int, []byte) {}}
		var proofTally tally[[]byte, *threshsig.SigShare, []byte]
		done.begin(&proofTally, 0, proofMsg, key)
		tn.settle(time.Second)
		offerRecords(tn, &done, &proofTally, recs)
		for _, c := range []struct {
			name    string
			settled bool
			cert    []byte
			subject []byte
			want    []byte
		}{
			{"coin", coinTally.done, coinTally.cert, coinName, coinCert},
			{"proof", proofTally.done, proofTally.cert, proofMsg, proofCert},
		} {
			if !c.settled {
				continue
			}
			if !bytes.Equal(c.cert, c.want) {
				t.Fatalf("%s settled on %x", c.name, c.cert)
			}
			if err := env.Suite.TSLow.Verify(c.subject, &threshsig.Signature{S: bigFromBytes(c.cert)}); err != nil {
				t.Fatalf("%s settled on a signature that does not verify: %v", c.name, err)
			}
		}
	})
}
