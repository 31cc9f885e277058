package core

import "encoding/binary"

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

type partial struct {
	seq    uint32
	total  uint8
	chunks map[uint8][]byte
}

// reassembler holds per-sender reassembly buffers. A standalone Transport
// owns one; a Mux owns a single shared one for all of its epochs.
type reassembler struct {
	bufs map[uint16]*partial
}

func newReassembler() *reassembler {
	return &reassembler{bufs: make(map[uint16]*partial)}
}

// feed consumes one radio frame and returns the completed logical packet
// when all of its fragments are present.
func (r *reassembler) feed(frag []byte) ([]byte, bool) {
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
		p = &partial{seq: seq, total: total, chunks: make(map[uint8][]byte, total)}
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
