// Package packet defines the wire format of ConsensusBatcher packets.
//
// A logical packet (Frame) carries a header, a list of sections, and a
// public-key signature. Each section holds the sender's current
// contribution to one (component kind, phase) pair across any subset of the
// N parallel instances — this is the paper's vertical batching. A frame
// holding several sections mixes phases (and even components), which is the
// paper's horizontal batching. Per-section N-bit NACK fields carry the
// compressed reliability state (the O(N^2) -> O(N) optimization of
// Sec. IV-C).
//
// Frames larger than the radio MTU are fragmented by internal/core; this
// package only defines the single logical encoding.
package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind identifies a consensus component family within an epoch.
type Kind uint8

// Component kinds. Values are wire-stable.
const (
	KindRBC       Kind = 1 // reliable broadcast (also the RBC inside PRBC)
	KindPRBC      Kind = 2 // PRBC DONE-phase threshold-signature shares
	KindCBCValue  Kind = 3 // Dumbo's first CBC set
	KindCBCCommit Kind = 4 // Dumbo's second CBC set
	KindABA       Kind = 5 // asynchronous Byzantine agreement
	KindDec       Kind = 6 // threshold-decryption share exchange
	KindGlobal    Kind = 7 // multi-hop global-tier payloads
	KindVCBC      Kind = 8 // Alea's verifiable consistent broadcast
)

// Phase identifies a protocol phase within a component.
type Phase uint8

// Phases. Values are wire-stable.
const (
	PhaseInitial  Phase = 1  // 1-to-N proposal dissemination
	PhaseEcho     Phase = 2  // RBC ECHO votes / CBC signature shares
	PhaseReady    Phase = 3  // RBC READY votes
	PhaseDone     Phase = 4  // PRBC threshold-signature shares, or the combined proof
	PhaseFinish   Phase = 5  // CBC combined-signature broadcast
	PhaseBval     Phase = 6  // Cachin ABA BVAL
	PhaseAux      Phase = 7  // Cachin ABA AUX
	PhaseShare    Phase = 8  // Cachin ABA coin share, or the SC coin's certificate
	PhaseVote1    Phase = 9  // Bracha ABA phase-1 vote (RBC-small)
	PhaseVote2    Phase = 10 // Bracha ABA phase-2 vote
	PhaseVote3    Phase = 11 // Bracha ABA phase-3 vote
	PhaseDecShare Phase = 12 // threshold decryption share
	PhaseRepair   Phase = 13 // a value's fragments as any holder serves them; its NACK row asks for the values a node lacks
	PhaseDecided  Phase = 14 // ABA termination claims (f+1 matching => adopt)
)

// KindLimit is the size of a table indexed by Kind: one past the largest
// value defined above. A kind read off the wire is checked against it
// before it indexes anything.
const KindLimit = int(KindVCBC) + 1

// PhaseLimit is the size of a table indexed by Phase, as KindLimit is by
// Kind.
const PhaseLimit = int(PhaseDecided) + 1

// EntryOverhead is the bytes an entry takes on the wire besides its Data:
// slot, sub, round, flags and the data length.
const EntryOverhead = 7

// Entry is one instance-granular contribution inside a section: the
// sender's state for instance Slot (optionally sub-indexed by Sub, e.g. a
// fragment number or a voter id) at round Round.
type Entry struct {
	Slot  uint8
	Sub   uint8
	Round uint16
	Flags uint8
	Data  []byte
}

// Section is the vertical-batching unit: all of the sender's entries for
// one (Kind, Phase), plus the compressed O(N) NACK bitmap for that phase.
type Section struct {
	Kind    Kind
	Phase   Phase
	Nack    BitSet
	Entries []Entry
}

// Frame is one logical signed packet.
type Frame struct {
	Sender   uint16
	Session  uint32
	Epoch    uint16
	Sections []Section
	Sig      []byte
}

// Encoding limits.
const (
	frameMagic   = 0xB7
	frameVersion = 1
	maxSections  = 255
	maxEntries   = 255
	maxData      = 65535
)

// Various decode errors.
var (
	ErrTruncated  = errors.New("packet: truncated frame")
	ErrBadMagic   = errors.New("packet: bad magic or version")
	ErrTooLarge   = errors.New("packet: field exceeds encoding limit")
	errBadSection = errors.New("packet: malformed section")
)

// AppendBody serializes everything except the signature; the result is the
// exact byte string the frame signature covers.
func (f *Frame) AppendBody(buf []byte) ([]byte, error) {
	if len(f.Sections) > maxSections {
		return nil, ErrTooLarge
	}
	buf = append(buf, frameMagic, frameVersion)
	buf = binary.BigEndian.AppendUint16(buf, f.Sender)
	buf = binary.BigEndian.AppendUint32(buf, f.Session)
	buf = binary.BigEndian.AppendUint16(buf, f.Epoch)
	buf = append(buf, byte(len(f.Sections)))
	for _, sec := range f.Sections {
		var err error
		buf, err = sec.append(buf)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Encode serializes the full frame (body plus signature).
func (f *Frame) Encode() ([]byte, error) {
	buf, err := f.AppendBody(nil)
	if err != nil {
		return nil, err
	}
	if len(f.Sig) > maxData {
		return nil, ErrTooLarge
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Sig)))
	buf = append(buf, f.Sig...)
	return buf, nil
}

func (s *Section) append(buf []byte) ([]byte, error) {
	if len(s.Entries) > maxEntries || len(s.Nack) > 255 {
		return nil, ErrTooLarge
	}
	buf = append(buf, byte(s.Kind), byte(s.Phase), byte(len(s.Nack)))
	buf = append(buf, s.Nack...)
	buf = append(buf, byte(len(s.Entries)))
	for _, e := range s.Entries {
		if len(e.Data) > maxData {
			return nil, ErrTooLarge
		}
		buf = append(buf, e.Slot, e.Sub)
		buf = binary.BigEndian.AppendUint16(buf, e.Round)
		buf = append(buf, e.Flags)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Data)))
		buf = append(buf, e.Data...)
	}
	return buf, nil
}

// Decode parses a full frame and returns it along with the body length
// (the prefix of raw covered by the signature). The frame shares nothing
// with raw — it is parsed out of a private copy — so the caller may
// overwrite or reuse raw at once. Receive paths that own immutable bytes
// use a Decoder directly and skip both the copy and the allocations.
func Decode(raw []byte) (*Frame, int, error) {
	return new(Decoder).Decode(bytes.Clone(raw))
}

// Decoder parses frames into section and entry storage it reuses from one
// frame to the next, so steady-state decoding allocates nothing. The zero
// value is ready to use.
type Decoder struct {
	frame    Frame
	sections []Section
	entries  []Entry
}

// headerLen is magic, version, sender, session, epoch, section count.
const headerLen = 2 + 2 + 4 + 2 + 1

// Decode parses a full frame out of raw and returns it along with the body
// length. The frame, its Sections and their Entries are the decoder's own
// storage, valid until the next Decode or Release; every Nack, Data and
// Sig aliases raw (with no spare capacity, so an append cannot write into
// it), which the caller must therefore keep unchanged for as long as any
// of them is in use. Bytes of raw past the signature are ignored.
func (d *Decoder) Decode(raw []byte) (*Frame, int, error) {
	// Pass 1: check every length against the input and count the entries,
	// so that pass 2 fills storage of known size and cannot fail.
	if len(raw) < 2 {
		return nil, 0, ErrTruncated
	}
	if raw[0] != frameMagic || raw[1] != frameVersion {
		return nil, 0, ErrBadMagic
	}
	if len(raw) < headerLen {
		return nil, 0, ErrTruncated
	}
	nsec := int(raw[headerLen-1])
	pos, nent := headerLen, 0
	for i := 0; i < nsec; i++ {
		if len(raw)-pos < 2 {
			return nil, 0, ErrTruncated
		}
		if raw[pos] == 0 || raw[pos+1] == 0 {
			return nil, 0, errBadSection
		}
		if len(raw)-pos < 3 {
			return nil, 0, ErrTruncated
		}
		pos += 3 + int(raw[pos+2]) // kind, phase, nack length, nack
		if len(raw)-pos < 1 {
			return nil, 0, ErrTruncated
		}
		n := int(raw[pos])
		pos++
		nent += n
		for ; n > 0; n-- {
			if len(raw)-pos < 7 {
				return nil, 0, ErrTruncated
			}
			pos += 7 + int(binary.BigEndian.Uint16(raw[pos+5:])) // slot, sub, round, flags, data length, data
		}
	}
	bodyLen := pos
	if len(raw)-pos < 2 {
		return nil, 0, ErrTruncated
	}
	end := pos + 2 + int(binary.BigEndian.Uint16(raw[pos:]))
	if len(raw) < end {
		return nil, 0, ErrTruncated
	}

	// Pass 2: fill.
	if cap(d.sections) < nsec {
		d.sections = make([]Section, nsec)
	}
	if cap(d.entries) < nent {
		d.entries = make([]Entry, nent)
	}
	secs, ents := d.sections[:nsec], d.entries[:nent]
	pos, nent = headerLen, 0
	for i := range secs {
		sec := &secs[i]
		sec.Kind, sec.Phase = Kind(raw[pos]), Phase(raw[pos+1])
		nack := pos + 3 + int(raw[pos+2])
		sec.Nack = nil
		if pos+3 < nack {
			sec.Nack = BitSet(raw[pos+3 : nack : nack])
		}
		n := int(raw[nack])
		pos = nack + 1
		sec.Entries = ents[nent : nent+n : nent+n]
		nent += n
		for j := range sec.Entries {
			e := &sec.Entries[j]
			e.Slot, e.Sub = raw[pos], raw[pos+1]
			e.Round = binary.BigEndian.Uint16(raw[pos+2:])
			e.Flags = raw[pos+4]
			data := pos + 7 + int(binary.BigEndian.Uint16(raw[pos+5:]))
			e.Data = raw[pos+7 : data : data]
			pos = data
		}
	}
	d.sections, d.entries = secs, ents
	d.frame = Frame{
		Sender:   binary.BigEndian.Uint16(raw[2:]),
		Session:  binary.BigEndian.Uint32(raw[4:]),
		Epoch:    binary.BigEndian.Uint16(raw[8:]),
		Sections: secs,
		Sig:      raw[bodyLen+2 : end : end],
	}
	return &d.frame, bodyLen, nil
}

// Release zeroes the frame the last Decode returned, sections and entries
// included. A receive path calls it once its handlers have returned: the
// storage is about to be reused, and a handler that wrongly kept
// sec.Entries then reads zeros at once rather than some later frame.
func (d *Decoder) Release() {
	clear(d.sections)
	clear(d.entries)
	d.frame = Frame{}
}

// PeekHeader reads the fixed frame header (sender, session, epoch) without
// decoding sections or checking the signature. The epoch demultiplexer uses
// it to route a reassembled frame to the right epoch's transport; the
// routed transport still authenticates the full frame.
func PeekHeader(raw []byte) (sender uint16, session uint32, epoch uint16, ok bool) {
	if len(raw) < 10 || raw[0] != frameMagic || raw[1] != frameVersion {
		return 0, 0, 0, false
	}
	sender = binary.BigEndian.Uint16(raw[2:])
	session = binary.BigEndian.Uint32(raw[4:])
	epoch = binary.BigEndian.Uint16(raw[8:])
	return sender, session, epoch, true
}

// String renders a compact human-readable form (used by cmd/wbft-packets).
func (f *Frame) String() string {
	out := fmt.Sprintf("frame sender=%d session=%d epoch=%d sections=%d sig=%dB",
		f.Sender, f.Session, f.Epoch, len(f.Sections), len(f.Sig))
	for _, s := range f.Sections {
		out += fmt.Sprintf("\n  section kind=%d phase=%d nack=%x entries=%d",
			s.Kind, s.Phase, []byte(s.Nack), len(s.Entries))
		for _, e := range s.Entries {
			out += fmt.Sprintf("\n    slot=%d sub=%d round=%d flags=%02x data=%dB",
				e.Slot, e.Sub, e.Round, e.Flags, len(e.Data))
		}
	}
	return out
}
