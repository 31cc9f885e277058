package component

import (
	"bytes"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/dleq"
	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// FuzzShareCodec feeds arbitrary bytes to the one threshold-share wire
// codec through both share types that ride it. Neither decoder may panic,
// and whatever decodes re-encodes to a canonical form: decoding that form
// gives the same share, and encoding that share gives the same bytes
// (leading zeros and trailing bytes of the input are not preserved, the
// value is).
func FuzzShareCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 1, 7, 0, 1, 8, 0, 1, 9})
	f.Add([]byte{2, 0, 2, 0, 7, 0, 0, 0, 3, 1, 2, 3, 0xFF}) // leading zero, empty int, trailing byte
	f.Add([]byte{3, 0xFF, 0xFF, 1})                         // length past the end
	f.Add(EncodeDLShare(&dlthresh.Share{Index: 4, V: big.NewInt(1 << 40), Proof: &dleq.Proof{C: big.NewInt(5), Z: new(big.Int)}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sig, sigErr := DecodeSigShare(raw)
		dl, dlErr := DecodeDLShare(raw)
		if (sigErr == nil) != (dlErr == nil) {
			t.Fatalf("one shape, two verdicts: sig %v, dl %v", sigErr, dlErr)
		}
		if sigErr != nil {
			return
		}
		canon := EncodeSigShare(sig)
		if other := EncodeDLShare(dl); !bytes.Equal(canon, other) {
			t.Fatalf("the two share types encode one input differently:\n %x\n %x", canon, other)
		}
		if len(canon) > len(raw) {
			t.Fatalf("canonical form (%d B) longer than its source (%d B)", len(canon), len(raw))
		}
		sig2, err := DecodeSigShare(canon)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		if !sameSigShare(sig, sig2) {
			t.Fatalf("share changed across encode/decode: %+v vs %+v", sig, sig2)
		}
		if again := EncodeSigShare(sig2); !bytes.Equal(again, canon) {
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
	coins := peerSchemes(tn, func(env *Env) scheme[[]byte, []byte, bool] { return SigCoin(env).scheme })
	dones := peerSchemes(tn, func(env *Env) scheme[[]byte, *threshsig.SigShare, []byte] {
		return sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare)
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
		coin := collector[[]byte, []byte, bool]{scheme: coins[0], env: env, combined: func(int, bool) {}}
		done := collector[[]byte, *threshsig.SigShare, []byte]{scheme: dones[0], env: env, combined: func(int, []byte) {}}
		var openCoin, parkedCoin tally[[]byte, []byte, bool]
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
