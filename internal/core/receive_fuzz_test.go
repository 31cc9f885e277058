package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// receiveFuzzEpochs are the epochs the fuzzed receiver has open.
const receiveFuzzEpochs = 2

// airFrame is one radio frame as a receiver got it: the transmitting
// station and the payload.
type airFrame struct {
	from    wireless.NodeID
	payload []byte
}

// earFunc adapts a function to wireless.Receiver.
type earFunc func(from wireless.NodeID, payload []byte)

func (f earFunc) ReceiveFrame(from wireless.NodeID, payload []byte) { f(from, payload) }

// captureHonest has stations 1–3 send intents of three kinds on both open
// epochs, one of them too large for one radio frame, and returns what
// station 0 heard, in order.
func captureHonest(tb testing.TB) []airFrame {
	tb.Helper()
	s := sim.New(11)
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	ch := wireless.NewChannel(s, cfg)
	var got []airFrame
	ch.Attach(0, earFunc(func(from wireless.NodeID, payload []byte) {
		got = append(got, airFrame{from, bytes.Clone(payload)})
	}))
	for id := 1; id < 4; id++ {
		tcfg := DefaultConfig(true)
		tcfg.RetxInterval = 0
		m := NewMux(s, sim.NewCPU(s), &SizedAuth{Len: 56}, tcfg)
		m.BindStation(ch.Attach(wireless.NodeID(id), m))
		for e := uint16(0); e < receiveFuzzEpochs; e++ {
			t := m.Open(e)
			t.Update(Intent{IntentKey: IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho, Slot: uint8(id)}, Data: []byte{byte(id)}})
			t.Update(Intent{IntentKey: IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval, Slot: uint8(id), Round: 1}, Flags: 1})
			if id == 1 {
				t.Update(Intent{IntentKey: IntentKey{Kind: packet.KindDec, Phase: packet.PhaseInitial}, Data: bytes.Repeat([]byte{0xD}, 300)})
			}
		}
	}
	s.Run()
	if len(got) == 0 {
		tb.Fatal("station 0 heard nothing")
	}
	return got
}

// receiveInput encodes (station, radio frame) pairs as the fuzz input:
// each is a station byte, a length byte and the frame.
func receiveInput(frames []airFrame) []byte {
	var in []byte
	for _, h := range frames {
		in = append(in, byte(h.from), byte(len(h.payload)))
		in = append(in, h.payload...)
	}
	return in
}

// parseReceiveInput decodes receiveInput's format; a short last record is
// cut to what is there.
func parseReceiveInput(in []byte) []airFrame {
	var out []airFrame
	for len(in) >= 2 {
		from, n := wireless.NodeID(in[0]%4), int(in[1])
		in = in[2:]
		n = min(n, len(in))
		out = append(out, airFrame{from, in[:n]})
		in = in[n:]
	}
	return out
}

// claimAs rewrites the sender the logical header of every first fragment
// claims (the radio frame's fragment header still names the transmitter).
func claimAs(frames []airFrame, sender uint16) []airFrame {
	out := make([]airFrame, len(frames))
	for i, h := range frames {
		p := bytes.Clone(h.payload)
		if len(p) >= fragHeaderLen+4 && p[6] == 0 {
			binary.BigEndian.PutUint16(p[fragHeaderLen+2:], sender)
		}
		out[i] = airFrame{h.from, p}
	}
	return out
}

// FuzzReceivePath feeds arbitrary (station, radio frame) pairs to a node's
// one receive path, Mux.ReceiveFrame, with two epochs open and a handler
// on every kind. Nothing may panic, and every section a handler gets must
// come from the station that transmitted the frame it rode in.
func FuzzReceivePath(f *testing.F) {
	honest := captureHonest(f)
	f.Add([]byte{})
	f.Add(receiveInput(honest))
	f.Add(receiveInput(claimAs(honest, 2)))
	f.Add(receiveInput(claimAs(honest, 0)))
	f.Add(receiveInput(claimAs(honest, 9)))
	// The honest frames heard as if another station had transmitted them.
	moved := make([]airFrame, len(honest))
	for i, h := range honest {
		moved[i] = airFrame{h.from%3 + 1, h.payload}
	}
	f.Add(receiveInput(moved))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := sim.New(1)
		tcfg := DefaultConfig(true)
		tcfg.RetxInterval = 0
		m := NewMux(s, sim.NewCPU(s), &SizedAuth{Len: 56, CostVerify: time.Millisecond}, tcfg)
		var station wireless.NodeID
		check := HandlerFunc(func(from uint16, sec packet.Section) {
			if from != uint16(station) {
				t.Fatalf("a kind-%d section from station %d reached its handler as from %d", sec.Kind, station, from)
			}
		})
		for e := uint16(0); e < receiveFuzzEpochs; e++ {
			tr := m.Open(e)
			for k := range packet.KindLimit {
				tr.Register(packet.Kind(k), check)
			}
		}
		for _, h := range parseReceiveInput(in) {
			station = h.from
			m.ReceiveFrame(h.from, h.payload)
			s.Run()
		}
	})
}
