package packet

// The reference decoder: the copying, reader-based parser Decoder replaced,
// moved here verbatim (names prefixed with ref) as the oracle the fuzz test
// compares Decoder against.

import "encoding/binary"

// refDecode parses a full frame and returns it along with the body length
// (the prefix of raw covered by the signature).
func refDecode(raw []byte) (*Frame, int, error) {
	r := refReader{buf: raw}
	magic, _ := r.u8()
	ver, err := r.u8()
	if err != nil {
		return nil, 0, ErrTruncated
	}
	if magic != frameMagic || ver != frameVersion {
		return nil, 0, ErrBadMagic
	}
	var f Frame
	if f.Sender, err = r.u16(); err != nil {
		return nil, 0, ErrTruncated
	}
	if f.Session, err = r.u32(); err != nil {
		return nil, 0, ErrTruncated
	}
	if f.Epoch, err = r.u16(); err != nil {
		return nil, 0, ErrTruncated
	}
	nsec, err := r.u8()
	if err != nil {
		return nil, 0, ErrTruncated
	}
	f.Sections = make([]Section, 0, nsec)
	for i := 0; i < int(nsec); i++ {
		sec, err := refDecodeSection(&r)
		if err != nil {
			return nil, 0, err
		}
		f.Sections = append(f.Sections, sec)
	}
	bodyLen := r.pos
	sigLen, err := r.u16()
	if err != nil {
		return nil, 0, ErrTruncated
	}
	sig, err := r.bytes(int(sigLen))
	if err != nil {
		return nil, 0, ErrTruncated
	}
	f.Sig = sig
	return &f, bodyLen, nil
}

func refDecodeSection(r *refReader) (Section, error) {
	var s Section
	k, err := r.u8()
	if err != nil {
		return s, ErrTruncated
	}
	p, err := r.u8()
	if err != nil {
		return s, ErrTruncated
	}
	s.Kind, s.Phase = Kind(k), Phase(p)
	if s.Kind == 0 || s.Phase == 0 {
		return s, errBadSection
	}
	nackLen, err := r.u8()
	if err != nil {
		return s, ErrTruncated
	}
	nack, err := r.bytes(int(nackLen))
	if err != nil {
		return s, ErrTruncated
	}
	if len(nack) > 0 {
		s.Nack = BitSet(nack)
	}
	nent, err := r.u8()
	if err != nil {
		return s, ErrTruncated
	}
	s.Entries = make([]Entry, 0, nent)
	for i := 0; i < int(nent); i++ {
		var e Entry
		if e.Slot, err = r.u8(); err != nil {
			return s, ErrTruncated
		}
		if e.Sub, err = r.u8(); err != nil {
			return s, ErrTruncated
		}
		if e.Round, err = r.u16(); err != nil {
			return s, ErrTruncated
		}
		if e.Flags, err = r.u8(); err != nil {
			return s, ErrTruncated
		}
		dlen, err := r.u16()
		if err != nil {
			return s, ErrTruncated
		}
		if e.Data, err = r.bytes(int(dlen)); err != nil {
			return s, ErrTruncated
		}
		s.Entries = append(s.Entries, e)
	}
	return s, nil
}

type refReader struct {
	buf []byte
	pos int
}

func (r *refReader) u8() (byte, error) {
	if r.pos+1 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *refReader) u16() (uint16, error) {
	if r.pos+2 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *refReader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *refReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, ErrTruncated
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:r.pos+n])
	r.pos += n
	return out, nil
}
