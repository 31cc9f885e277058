package byz

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/packet"
)

// ForgeCut is the forged-cut attack on the clustered chain's global tier:
// a Byzantine relay seat rewrites the cluster-cut records inside its own
// proposals, making them claim a cluster it does not control with an
// attacker-chosen digest. The certificate bytes are left as they were —
// the attacker holds at most f of any other cluster's f+1 signing shares,
// so it cannot produce a valid certificate for the forged (cluster,
// epoch, digest) and the best it can do is replay a stale one. The
// defense is the cut certificate itself (internal/run/cutcert.go): every
// seat verifies the threshold signature over the claimed tuple before
// counting a cut, so forged records are rejected at every honest seat
// and never enter the cross-cluster order.
//
// On deployments whose proposals are not cut batches (single-hop cells,
// encrypted proposals), the payload does not decode as a batch of cut
// records and passes through unchanged — the node is then simply honest
// on the wire.
type ForgeCut struct {
	asm map[forgeKey]*forgeAsm
}

// forgeKey identifies one fragmented proposal in flight: fragments of the
// same (transport, component, slot) belong together.
type forgeKey struct {
	t    *core.Transport
	kind packet.Kind
	slot uint8
}

// forgeAsm buffers withheld proposal fragments until the value is whole.
type forgeAsm struct {
	frags [][]byte
	have  int
}

// forgedCutMin mirrors internal/run's certified-cut wire layout: a
// 40-byte (cluster, epoch, digest) header followed by a non-empty
// threshold certificate. Shorter transactions are not cut records and
// are left alone.
const forgedCutMin = 41

// Name implements Behavior.
func (f *ForgeCut) Name() string { return NameForgeCut }

// Rewrite implements Behavior. Unfragmented proposals are forged in
// place; fragmented ones are withheld until every fragment is buffered,
// then the reassembled batch is forged and re-emitted along the original
// fragment boundaries (the forgery preserves length), so peers still see
// a well-formed proposal — just a lying one.
func (f *ForgeCut) Rewrite(ctx Ctx, in core.Intent) []core.Intent {
	if in.Phase != packet.PhaseInitial {
		return []core.Intent{in}
	}
	total := int(in.Flags)
	if total <= 1 {
		if forged := forgeBatch(in.Data); forged != nil {
			out := in
			out.Data = forged
			return []core.Intent{out}
		}
		return []core.Intent{in}
	}
	if f.asm == nil {
		f.asm = make(map[forgeKey]*forgeAsm)
	}
	key := forgeKey{t: ctx.T, kind: in.Kind, slot: in.Slot}
	a := f.asm[key]
	if a == nil || len(a.frags) != total {
		a = &forgeAsm{frags: make([][]byte, total)}
		f.asm[key] = a
	}
	if int(in.Sub) >= total {
		return []core.Intent{in} // malformed fragment index; not ours to fix
	}
	if a.frags[in.Sub] == nil {
		a.have++
	}
	a.frags[in.Sub] = append([]byte(nil), in.Data...)
	if a.have < total {
		return nil // withhold until the whole proposal is assembled
	}
	delete(f.asm, key)
	var value []byte
	for _, frag := range a.frags {
		value = append(value, frag...)
	}
	forged := forgeBatch(value)
	if forged == nil {
		forged = value // nothing to forge; release the honest proposal
	}
	out := make([]core.Intent, total)
	off := 0
	for i, frag := range a.frags {
		fi := in
		fi.Sub = uint8(i)
		fi.Data = append([]byte(nil), forged[off:off+len(frag)]...)
		off += len(frag)
		out[i] = fi
	}
	return out
}

// forgeBatch rewrites every cut record of a proposal batch to claim the
// neighboring cluster (cluster id low bit flipped) with a scrambled
// digest, keeping the stale certificate bytes. The adversary parses the
// batch framing straight off the wire — a u16 record count, then
// u16-length-prefixed transactions, protocol.EncodeBatch's layout, then
// the seal — mutates cut-sized records in place and reseals the batch: it
// is the proposer, so its forgery is a well-sealed batch of the same
// length. It returns nil if the payload is not a well-formed batch of cut
// records.
func forgeBatch(sealed []byte) []byte {
	if len(sealed) < 2+sealLen {
		return nil
	}
	data := sealed[:len(sealed)-sealLen]
	count := int(binary.BigEndian.Uint16(data))
	out := append([]byte(nil), data...)
	off := 2
	forged := false
	for i := 0; i < count; i++ {
		if len(data)-off < 2 {
			return nil
		}
		n := int(binary.BigEndian.Uint16(data[off:]))
		off += 2
		if len(data)-off < n {
			return nil
		}
		if n >= forgedCutMin {
			ftx := out[off : off+n]
			ftx[3] ^= 1 // a cluster the attacker does not control
			for j := 8; j < 40; j++ {
				ftx[j] ^= 0xA5 // attacker-chosen digest
			}
			forged = true
		}
		off += n
	}
	if off != len(data) || !forged {
		return nil
	}
	return append(out, reseal(out)...)
}

// sealLen and reseal mirror protocol.SealLen and protocol.SealBatch's
// digest: this package cannot import protocol, whose tests build nodes,
// which arm adversaries.
const sealLen = 16

func reseal(batch []byte) []byte {
	h := sha256.New()
	h.Write([]byte("protocol-batch-seal"))
	h.Write(batch)
	return h.Sum(nil)[:sealLen]
}
