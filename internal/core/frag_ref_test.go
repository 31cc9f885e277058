package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// refReassembler is the reassembler as it was before it became one
// reusable partial per transmitter — a map of partials by the sender the
// header names, each a map of chunks — kept here verbatim as the oracle.
type refPartial struct {
	seq    uint32
	total  uint8
	chunks map[uint8][]byte
}

type refReassembler struct {
	bufs map[uint16]*refPartial
}

func (r *refReassembler) feed(frag []byte) ([]byte, bool) {
	if len(frag) < fragHeaderLen {
		return nil, false
	}
	sender := binary.BigEndian.Uint16(frag[0:])
	seq := binary.BigEndian.Uint32(frag[2:])
	idx, total := frag[6], frag[7]
	if total == 0 || idx >= total {
		return nil, false
	}
	body := frag[fragHeaderLen:]
	if total == 1 {
		return body, true
	}
	p := r.bufs[sender]
	if p == nil || seq > p.seq {
		p = &refPartial{seq: seq, total: total, chunks: make(map[uint8][]byte, total)}
		r.bufs[sender] = p
	}
	if seq < p.seq || total != p.total {
		return nil, false // stale or inconsistent fragment
	}
	if _, dup := p.chunks[idx]; dup {
		return nil, false
	}
	p.chunks[idx] = body
	if len(p.chunks) < int(p.total) {
		return nil, false
	}
	n := 0
	for i := uint8(0); i < p.total; i++ {
		n += len(p.chunks[i])
	}
	out := make([]byte, 0, n)
	for i := uint8(0); i < p.total; i++ {
		out = append(out, p.chunks[i]...)
	}
	delete(r.bufs, sender)
	return out, true
}

// fuzzFragments parses fuzz input into a stream of radio frames and who
// transmitted each. A record is five bytes — transmitter, a header-sender
// selector, sequence number, index, total — and up to three of body. Small
// alphabets keep stale, duplicate and inconsistent fragments frequent;
// selector values 6 and 7 make the header name someone else, 5 truncates
// the frame below a header.
func fuzzFragments(data []byte) (froms []wireless.NodeID, frags [][]byte) {
	seqs := []uint32{0, 1, 2, 3, 0x7FFFFFFF, 0xFFFFFFFF}
	for len(data) >= 5 {
		from := wireless.NodeID(data[0] % 4)
		sender := uint16(from)
		switch data[1] % 8 {
		case 6:
			sender = uint16(from+1) % 4
		case 7:
			sender = 0xFFFF // no station at all
		}
		n := min(int(data[4]%4), len(data)-5)
		frag := binary.BigEndian.AppendUint16(nil, sender)
		frag = binary.BigEndian.AppendUint32(frag, seqs[int(data[2])%len(seqs)])
		frag = append(frag, data[3]%5, data[4]>>2%5)
		frag = append(frag, data[5:5+n]...)
		if data[1]%8 == 5 {
			frag = frag[:data[3]%fragHeaderLen]
		}
		froms, frags = append(froms, from), append(frags, frag)
		data = data[5+n:]
	}
	return froms, frags
}

// FuzzReassembler feeds arbitrary fragment streams — stale, duplicate,
// inconsistent totals, empty bodies, truncated headers, headers naming
// another or no station — to the reassembler and to the oracle. A
// fragment whose header names its transmitter must get the oracle's
// answer; one that does not must be dropped as forged, and the oracle
// never sees it. Nothing may panic.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2<<2 | 1, 'a', 0, 0, 1, 1, 2<<2 | 1, 'b'})                     // two fragments, in order
	f.Add([]byte{1, 0, 1, 1, 3 << 2, 1, 0, 1, 1, 3 << 2, 1, 0, 1, 0, 3 << 2})               // duplicate, empty bodies
	f.Add([]byte{2, 0, 5, 0, 2 << 2, 2, 0, 1, 0, 2 << 2, 2, 0, 1, 1, 2 << 2})               // parked 0xFFFFFFFF makes seq 1 stale
	f.Add([]byte{3, 6, 5, 0, 2 << 2, 0, 0, 1, 0, 2<<2 | 1, 'x', 0, 0, 1, 1, 2<<2 | 1, 'y'}) // forged under another's name
	f.Add([]byte{0, 7, 0, 0, 1 << 2, 0, 5, 0, 3, 1 << 2, 0, 0, 2, 0, 2 << 2, 0, 0, 2, 0, 3 << 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r reassembler
		ref := &refReassembler{bufs: make(map[uint16]*refPartial)}
		froms, frags := fuzzFragments(data)
		for i, frag := range frags {
			got, ok, forged := r.feed(froms[i], frag)
			if len(frag) >= fragHeaderLen && binary.BigEndian.Uint16(frag) != uint16(froms[i]) {
				if ok || !forged {
					t.Fatalf("fragment %d (%x from station %d): ok=%v forged=%v, want it dropped as forged", i, frag, froms[i], ok, forged)
				}
				continue
			}
			want, wantOK := ref.feed(frag)
			if ok != wantOK || forged || !bytes.Equal(got, want) {
				t.Fatalf("fragment %d (%x from station %d): (%x, %v, forged=%v), oracle (%x, %v)", i, frag, froms[i], got, ok, forged, want, wantOK)
			}
		}
		if len(r.bufs) > 4 {
			t.Fatalf("reassembly table grew to %d entries for 4 stations", len(r.bufs))
		}
	})
}

// TestForgedFragmentCannotShadowVictim: reassembly is filed under the
// station that transmitted, so a fragment claiming to be the victim's
// with the highest sequence number there is — which, filed under the
// header's name, would make every later multi-fragment packet of the
// victim stale for good — is dropped and counted, and the victim's real
// two-fragment packet still reassembles. There is one receive path; the
// table enters it through both of its public doors.
func TestForgedFragmentCannotShadowVictim(t *testing.T) {
	const victim, forger = 0, 1
	forgery := appendFragment(nil, []byte("xx"), victim, 0xFFFFFFFF, 0, 2, 1)
	intent := Intent{
		IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial, Slot: 0},
		Data:      bytes.Repeat([]byte("two radio frames "), 18),
	}
	for _, tc := range []struct {
		name string
		// rig returns the victim's transport, the receiver's, and the door
		// the receiver's station delivers through.
		rig func(t *testing.T) (s *sim.Scheduler, tx, rx *Transport, door wireless.Receiver)
	}{
		{"transport", func(t *testing.T) (*sim.Scheduler, *Transport, *Transport, wireless.Receiver) {
			r := newRig(t, 2, true, nil)
			return r.sched, r.transports[victim], r.transports[1], r.transports[1]
		}},
		{"mux", func(t *testing.T) (*sim.Scheduler, *Transport, *Transport, wireless.Receiver) {
			r := newMuxRig(t, 2, true)
			return r.sched, r.muxes[victim].Open(3), r.muxes[1].Open(3), r.muxes[1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, tx, rx, door := tc.rig(t)
			var got [][]byte
			rx.Register(packet.KindRBC, HandlerFunc(func(_ uint16, sec packet.Section) {
				got = append(got, sec.Entries[0].Data)
			}))
			door.ReceiveFrame(forger, forgery)
			if d := rx.m.DroppedSession(); d != 1 {
				t.Fatalf("DroppedSession = %d after the forged fragment, want 1", d)
			}
			tx.Update(intent)
			s.Run()
			if tx.Stats().FragmentsSent != 2 || len(got) != 1 || !bytes.Equal(got[0], intent.Data) {
				t.Fatalf("victim sent %d fragments, receiver reassembled %d packets %x, want 2 and the victim's one",
					tx.Stats().FragmentsSent, len(got), got)
			}
		})
	}
}
