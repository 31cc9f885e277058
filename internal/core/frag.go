package core

import (
	"encoding/binary"

	"repro/internal/wireless"
)

// Fragment header: sender(2) seq(4) idx(1) total(1). Fragments of a newer
// logical packet from the same sender supersede any partial older one —
// logical packets are state snapshots, so losing an old one entirely is
// harmless once a newer one exists. Sequence numbers are per sender node,
// not per epoch: a node pipelining several epochs draws all its frames from
// one seq space so receivers keep a single reassembly buffer per peer.
const fragHeaderLen = 8

// fragmentCount returns how many radio frames a logical packet of n bytes
// takes at chunk payload bytes a frame. An empty packet still takes one.
func fragmentCount(n, chunk int) int {
	if chunk <= 0 {
		panic("core: MTU smaller than fragment header")
	}
	total := (n + chunk - 1) / chunk
	if total == 0 {
		total = 1
	}
	if total > 255 {
		panic("core: logical packet needs more than 255 fragments")
	}
	return total
}

// appendFragment appends radio frame idx of total — header, then the
// idx-th chunk of raw — to dst.
func appendFragment(dst, raw []byte, sender uint16, seq uint32, idx, total, chunk int) []byte {
	lo := idx * chunk
	hi := min(lo+chunk, len(raw))
	dst = binary.BigEndian.AppendUint16(dst, sender)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = append(dst, byte(idx), byte(total))
	return append(dst, raw[lo:hi]...)
}

// partial is the multi-fragment logical packet one transmitter has in the
// making. The record, its span table and its body storage are reused from
// packet to packet: a fragment's body is copied in as it arrives, so no
// radio frame is kept past the call that delivered it.
type partial struct {
	seq   uint32
	total uint8  // 0: nothing in the making
	have  int    // fragments present
	spans []span // by fragment index
	body  []byte // the bodies heard, in arrival order
}

// span is where a heard fragment's body lies in partial.body; n < 0 until
// it is heard, so an empty body counts.
type span struct{ off, n int }

// reassembler holds one reassembly buffer per transmitting station, indexed
// by the station id the channel reports — never by the sender the fragment
// header claims, which nothing has authenticated yet. A Mux owns the one
// its node's epochs share.
type reassembler struct {
	bufs []partial
}

// feed consumes one radio frame heard from station from and returns the
// completed logical packet, and its sequence number, when all of its
// fragments are present. A single-fragment packet is the frame's body,
// which the caller must copy to keep; a multi-fragment one is assembled
// into a buffer taken from pool, and pooled says so. forged reports a
// fragment whose header names another sender than the station that
// transmitted it; it is dropped, so a forger can park or supersede partial
// packets only under its own id.
func (r *reassembler) feed(from wireless.NodeID, frag []byte, pool *packetBufs) (raw []byte, seq uint32, pooled, ok, forged bool) {
	if len(frag) < fragHeaderLen {
		return nil, 0, false, false, false
	}
	if binary.BigEndian.Uint16(frag[0:]) != uint16(from) {
		return nil, 0, false, false, true
	}
	seq = binary.BigEndian.Uint32(frag[2:])
	idx, total := frag[6], frag[7]
	if total == 0 || idx >= total {
		return nil, 0, false, false, false
	}
	body := frag[fragHeaderLen:]
	if total == 1 {
		return body, seq, false, true, false
	}
	// from is the channel's word, not the wire's: the table grows to the
	// largest station id attached and no further.
	for int(from) >= len(r.bufs) {
		r.bufs = append(r.bufs, partial{})
	}
	p := &r.bufs[from]
	if p.total == 0 || seq > p.seq {
		p.spans = p.spans[:0]
		for range total {
			p.spans = append(p.spans, span{n: -1})
		}
		p.seq, p.total, p.have, p.body = seq, total, 0, p.body[:0]
	}
	if seq < p.seq || total != p.total || p.spans[idx].n >= 0 {
		return nil, 0, false, false, false // stale, inconsistent or duplicate fragment
	}
	p.spans[idx] = span{len(p.body), len(body)}
	p.body = append(p.body, body...)
	p.have++
	if p.have < int(p.total) {
		return nil, 0, false, false, false
	}
	raw = pool.take()
	for _, sp := range p.spans {
		raw = append(raw, p.body[sp.off:sp.off+sp.n]...)
	}
	p.total = 0
	return raw, seq, true, true, false
}

// packetBufs is a Mux's free list of packet buffers. A received logical
// packet's bytes are in one from the moment the Mux routes it until its
// dispatch returns (verifyJob.exec), when the buffer is cleared and goes
// back: the decoded frame's Nack, Data and Sig alias it, and a handler
// that kept one of them reads zeros at once instead of a later packet.
type packetBufs [][]byte

// take returns an empty buffer, with the capacity an earlier packet grew it
// to.
func (p *packetBufs) take() []byte {
	n := len(*p)
	if n == 0 {
		return nil
	}
	b := (*p)[n-1]
	*p = (*p)[:n-1]
	return b
}

// put clears b and puts it back on the free list.
func (p *packetBufs) put(b []byte) {
	clear(b)
	*p = append(*p, b[:0])
}
