package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomFrame(rng *rand.Rand) *Frame {
	f := &Frame{
		Sender:  uint16(rng.Intn(16)),
		Session: rng.Uint32(),
		Epoch:   uint16(rng.Intn(100)),
	}
	for s := 0; s < 1+rng.Intn(4); s++ {
		sec := Section{
			Kind:  Kind(1 + rng.Intn(7)),
			Phase: Phase(1 + rng.Intn(13)),
		}
		if rng.Intn(2) == 0 {
			sec.Nack = NewBitSet(1 + rng.Intn(16))
			for i := 0; i < 3; i++ {
				sec.Nack.Set(rng.Intn(len(sec.Nack) * 8))
			}
		}
		for e := 0; e < rng.Intn(5); e++ {
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			sec.Entries = append(sec.Entries, Entry{
				Slot:  uint8(rng.Intn(8)),
				Sub:   uint8(rng.Intn(8)),
				Round: uint16(rng.Intn(32)),
				Flags: uint8(rng.Intn(256)),
				Data:  data,
			})
		}
		f.Sections = append(f.Sections, sec)
	}
	sig := make([]byte, 56)
	rng.Read(sig)
	f.Sig = sig
	return f
}

// TestDecodeSharesNothingWithInput is the aliasing property of the copying
// Decode: the frame it returns must survive its input being overwritten
// and reused by an unrelated encoder, because callers hand it buffers they
// go on to reuse. If Decode ever returned a view into the raw bytes instead
// of a copy, scribbling over them corrupts the decoded frame and the test
// fails.
func TestDecodeSharesNothingWithInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf []byte // one encode buffer, reused for every frame
	for i := 0; i < 200; i++ {
		f := randomFrame(rng)
		body, err := f.AppendBody(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		raw := append(body, byte(len(f.Sig)>>8), byte(len(f.Sig)))
		raw = append(raw, f.Sig...)
		buf = raw
		want := append([]byte(nil), raw...)

		got, _, err := Decode(raw)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// Scribble over the whole backing array, the way its next use would.
		full := raw[:cap(raw)]
		for j := range full {
			full[j] = 0xA5
		}

		reenc, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, want) {
			t.Fatalf("iteration %d: decoded frame changed after its input was overwritten", i)
		}
	}
}

// BenchmarkFrameEncodeDecode measures one encode into a reused buffer plus
// a copying decode of a representative batched frame.
func BenchmarkFrameEncodeDecode(b *testing.B) {
	f := sampleFrame()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := f.AppendBody(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		raw := append(body, byte(len(f.Sig)>>8), byte(len(f.Sig)))
		raw = append(raw, f.Sig...)
		buf = raw
		if _, _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
