package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleFrame() *Frame {
	return &Frame{
		Sender:  3,
		Session: 0xDEADBEEF,
		Epoch:   7,
		Sections: []Section{
			{
				Kind:  KindRBC,
				Phase: PhaseEcho,
				Nack:  BitSet{0b1010},
				Entries: []Entry{
					{Slot: 0, Sub: 0, Round: 0, Flags: 1, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
					{Slot: 2, Sub: 1, Round: 0, Flags: 0, Data: nil},
				},
			},
			{
				Kind:    KindABA,
				Phase:   PhaseBval,
				Entries: []Entry{{Slot: 1, Round: 3, Data: []byte{0b01}}},
			},
		},
		Sig: bytes.Repeat([]byte{0xAB}, 56),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFrame()
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, bodyLen, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if bodyLen != len(raw)-2-len(f.Sig) {
		t.Errorf("bodyLen = %d, want %d", bodyLen, len(raw)-2-len(f.Sig))
	}
	if got.Sender != f.Sender || got.Session != f.Session || got.Epoch != f.Epoch {
		t.Error("header mismatch")
	}
	if len(got.Sections) != 2 {
		t.Fatalf("sections = %d", len(got.Sections))
	}
	if !bytes.Equal(got.Sections[0].Nack, f.Sections[0].Nack) {
		t.Error("nack mismatch")
	}
	if !reflect.DeepEqual(got.Sections[0].Entries[0].Data, f.Sections[0].Entries[0].Data) {
		t.Error("entry data mismatch")
	}
	if !bytes.Equal(got.Sig, f.Sig) {
		t.Error("signature mismatch")
	}
}

func TestBodyIsSignaturePrefix(t *testing.T) {
	f := sampleFrame()
	body, err := f.AppendBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, body) {
		t.Error("encoded frame does not start with the signed body")
	}
}

func TestDecodeRejectsJunk(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{0xB7},
		{0xB7, 0x99}, // wrong version
		{0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for i, raw := range cases {
		if _, _, err := Decode(raw); err == nil {
			t.Errorf("case %d: junk accepted", i)
		}
	}
	// Truncations of a valid frame must all fail cleanly.
	raw, err := sampleFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := Decode(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestZeroKindRejected(t *testing.T) {
	f := &Frame{Sections: []Section{{Kind: 0, Phase: PhaseEcho}}}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(raw); err == nil {
		t.Error("zero kind accepted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func() *Frame {
		f := &Frame{
			Sender:  uint16(rng.Intn(16)),
			Session: rng.Uint32(),
			Epoch:   uint16(rng.Intn(100)),
		}
		for s := 0; s < rng.Intn(4); s++ {
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
	for i := 0; i < 200; i++ {
		f := gen()
		raw, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Decode(raw)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		raw2, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("iteration %d: re-encode mismatch", i)
		}
	}
}

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(10)
	if len(b) != 2 {
		t.Fatalf("NewBitSet(10) has %d bytes", len(b))
	}
	b.Set(0)
	b.Set(9)
	if !b.Get(0) || !b.Get(9) || b.Get(5) {
		t.Error("Set/Get mismatch")
	}
	if b.Count() != 2 {
		t.Errorf("Count = %d", b.Count())
	}
	b.Clear(0)
	if b.Get(0) || b.Count() != 1 {
		t.Error("Clear failed")
	}
	if b.Get(100) {
		t.Error("out-of-range Get returned true")
	}
	c := b.Clone()
	c.Set(1)
	if b.Get(1) {
		t.Error("Clone aliases original")
	}
	if !bytes.Equal(b, b.Clone()) {
		t.Error("Clone differs from the original")
	}
}

func TestBitSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range did not panic")
		}
	}()
	NewBitSet(8).Set(8)
}

func TestBitSetQuick(t *testing.T) {
	f := func(idxs []uint8) bool {
		b := NewBitSet(256)
		seen := map[int]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			seen[int(i)] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
