package component

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/threshsig"
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
