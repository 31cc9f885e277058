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
// making. The record and its chunk table are reused from packet to packet.
type partial struct {
	seq    uint32
	total  uint8    // 0: nothing in the making
	have   int      // fragments present
	chunks [][]byte // by fragment index, nil until heard; a heard body is non-nil even when empty
}

// reassembler holds one reassembly buffer per transmitting station, indexed
// by the station id the channel reports — never by the sender the fragment
// header claims, which nothing has authenticated yet. A Mux owns the one
// its node's epochs share.
type reassembler struct {
	bufs []partial
}

// feed consumes one radio frame heard from station from and returns the
// completed logical packet, and its sequence number, when all of its
// fragments are present. forged
// reports a fragment whose header names another sender than the station
// that transmitted it; it is dropped, so a forger can park or supersede
// partial packets only under its own id.
func (r *reassembler) feed(from wireless.NodeID, frag []byte) (raw []byte, seq uint32, ok, forged bool) {
	if len(frag) < fragHeaderLen {
		return nil, 0, false, false
	}
	if binary.BigEndian.Uint16(frag[0:]) != uint16(from) {
		return nil, 0, false, true
	}
	seq = binary.BigEndian.Uint32(frag[2:])
	idx, total := frag[6], frag[7]
	if total == 0 || idx >= total {
		return nil, 0, false, false
	}
	body := frag[fragHeaderLen:]
	if total == 1 {
		return body, seq, true, false
	}
	// from is the channel's word, not the wire's: the table grows to the
	// largest station id attached and no further.
	for int(from) >= len(r.bufs) {
		r.bufs = append(r.bufs, partial{})
	}
	p := &r.bufs[from]
	if p.total == 0 || seq > p.seq {
		clear(p.chunks)
		p.chunks = append(p.chunks[:0], make([][]byte, total)...)
		p.seq, p.total, p.have = seq, total, 0
	}
	if seq < p.seq || total != p.total || p.chunks[idx] != nil {
		return nil, 0, false, false // stale, inconsistent or duplicate fragment
	}
	p.chunks[idx] = body
	p.have++
	if p.have < int(p.total) {
		return nil, 0, false, false
	}
	n := 0
	for _, c := range p.chunks {
		n += len(c)
	}
	out := make([]byte, 0, n)
	for _, c := range p.chunks {
		out = append(out, c...)
	}
	clear(p.chunks)
	p.total = 0
	return out, seq, true, false
}
