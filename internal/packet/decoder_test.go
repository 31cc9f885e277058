package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// sixSectionFrame is the shape a mid-epoch batched node has on the air:
// six sections, NACK bitmaps on some, an empty section, empty Data.
func sixSectionFrame() *Frame {
	sec := func(k Kind, p Phase, nack BitSet, entries, size int) Section {
		s := Section{Kind: k, Phase: p, Nack: nack}
		for i := 0; i < entries; i++ {
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(i*31 + j + 1)
			}
			s.Entries = append(s.Entries, Entry{Slot: uint8(i), Sub: uint8(i % 2), Round: uint16(300 + i), Flags: uint8(i), Data: data})
		}
		return s
	}
	return &Frame{
		Sender: 2, Session: 7, Epoch: 3,
		Sections: []Section{
			sec(KindRBC, PhaseEcho, BitSet{0b0101}, 4, 8),
			sec(KindRBC, PhaseReady, BitSet{0b0001, 0xFF}, 4, 8),
			sec(KindABA, PhaseBval, nil, 4, 1),
			sec(KindABA, PhaseAux, nil, 0, 0),
			sec(KindABA, PhaseShare, BitSet{0}, 1, 12),
			sec(KindDec, PhaseDecShare, nil, 2, 0),
		},
		Sig: bytes.Repeat([]byte{0xC3}, 56),
	}
}

// sameFrame reports whether two decoded frames carry the same values; nil
// and empty byte fields are the same value.
func sameFrame(a, b *Frame) bool {
	if a.Sender != b.Sender || a.Session != b.Session || a.Epoch != b.Epoch ||
		!bytes.Equal(a.Sig, b.Sig) || len(a.Sections) != len(b.Sections) {
		return false
	}
	for i := range a.Sections {
		sa, sb := &a.Sections[i], &b.Sections[i]
		if sa.Kind != sb.Kind || sa.Phase != sb.Phase || !bytes.Equal(sa.Nack, sb.Nack) || len(sa.Entries) != len(sb.Entries) {
			return false
		}
		for j := range sa.Entries {
			ea, eb := &sa.Entries[j], &sb.Entries[j]
			if ea.Slot != eb.Slot || ea.Sub != eb.Sub || ea.Round != eb.Round || ea.Flags != eb.Flags || !bytes.Equal(ea.Data, eb.Data) {
				return false
			}
		}
	}
	return true
}

// checkAgainstReference is the property FuzzDecode holds Decoder to, on one
// input: the reference decoder's verdict, body length and frame, and an
// accepted frame re-encodes to exactly the prefix of raw that was accepted.
func checkAgainstReference(t *testing.T, d *Decoder, raw []byte) {
	t.Helper()
	in := bytes.Clone(raw)
	got, gotBody, gotErr := d.Decode(raw)
	want, wantBody, wantErr := refDecode(raw)
	if !bytes.Equal(raw, in) {
		t.Fatalf("Decode wrote to its input")
	}
	if gotErr != wantErr {
		t.Fatalf("verdict %v, reference %v (input %x)", gotErr, wantErr, raw)
	}
	if gotErr != nil {
		if got != nil || gotBody != 0 {
			t.Fatalf("rejected input returned frame %v, body length %d", got, gotBody)
		}
		return
	}
	if gotBody != wantBody || !sameFrame(got, want) {
		t.Fatalf("decoded\n%v (body %d)\nreference\n%v (body %d)", got, gotBody, want, wantBody)
	}
	enc, err := got.Encode()
	if err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	if !bytes.HasPrefix(raw, enc) || len(enc) != gotBody+2+len(got.Sig) {
		t.Fatalf("re-encoding is not the accepted prefix:\n in %x\nout %x", raw, enc)
	}
}

// FuzzDecode: arbitrary bytes never panic the decoder, and its verdict and
// value are the reference decoder's. One Decoder serves the whole run, as
// on the receive path, so stale storage from an earlier input would show.
func FuzzDecode(f *testing.F) {
	for _, junk := range [][]byte{
		nil,
		{0x00},
		{0xB7},
		{0xB7, 0x99},
		{0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		f.Add(junk)
	}
	raw, err := sixSectionFrame().Encode()
	if err != nil {
		f.Fatal(err)
	}
	for cut := 1; cut <= len(raw); cut++ {
		f.Add(raw[:cut])
	}
	f.Add(append(bytes.Clone(raw), 0xEE, 0xEE)) // bytes past the signature
	var d Decoder
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAgainstReference(t, &d, raw)
	})
}

// TestDecoderMatchesReference runs the fuzz property over random valid
// frames and over every single-byte corruption of one, through one reused
// Decoder.
func TestDecoderMatchesReference(t *testing.T) {
	var d Decoder
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		raw, err := randomFrame(rng).Encode()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, &d, raw)
	}
	raw, err := sixSectionFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		for _, v := range []byte{0x00, 0x01, 0xFF, raw[i] + 1} {
			mut := bytes.Clone(raw)
			mut[i] = v
			checkAgainstReference(t, &d, mut)
		}
	}
}

// TestDecoderAliasesInputAndReusesStorage pins the Decoder's contract: byte
// fields are views of the input with no spare capacity, the frame is the
// decoder's storage until Release, and steady-state decoding allocates
// nothing.
func TestDecoderAliasesInputAndReusesStorage(t *testing.T) {
	raw, err := sixSectionFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	f, _, err := d.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	data := f.Sections[0].Entries[0].Data
	if &data[0] != &raw[bytes.Index(raw, data)] {
		t.Error("entry Data is a copy, want a view of the input")
	}
	for _, b := range [][]byte{data, f.Sections[0].Nack, f.Sig} {
		if cap(b) != len(b) {
			t.Errorf("aliased field has %d bytes of spare capacity: an append would write into the input", cap(b)-len(b))
		}
	}
	kept := f.Sections[0].Entries
	d.Release()
	for _, e := range kept {
		if e.Slot != 0 || e.Sub != 0 || e.Round != 0 || e.Flags != 0 || e.Data != nil {
			t.Fatalf("entry kept across Release still reads %+v, want zeros", e)
		}
	}
	if f.Sections != nil || f.Sig != nil {
		t.Error("frame kept across Release still has sections or a signature")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := d.Decode(raw); err != nil {
			t.Fatal(err)
		}
		d.Release()
	}); n != 0 {
		t.Errorf("steady-state Decode allocates %v times a frame, want 0", n)
	}
}

// BenchmarkDecoder is the receive path's decode: a reused Decoder over
// immutable bytes.
func BenchmarkDecoder(b *testing.B) {
	raw, err := sixSectionFrame().Encode()
	if err != nil {
		b.Fatal(err)
	}
	var d Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Decode(raw); err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}
