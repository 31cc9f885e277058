package packet

import "fmt"

// BitSet is a compact per-instance bitmap. The paper's key packet
// optimization compresses NACK state from O(N^2) (one bit per instance per
// peer) to O(N) (one bit per instance meaning "this instance has reached
// its quorum"); BitSet is the wire representation of those N-bit fields.
type BitSet []byte

// NewBitSet returns a bitset able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+7)/8) }

// Set sets bit i.
func (b BitSet) Set(i int) {
	if i < 0 || i >= len(b)*8 {
		panic(fmt.Sprintf("packet: bit %d out of range (%d bits)", i, len(b)*8))
	}
	b[i/8] |= 1 << (i % 8)
}

// Clear clears bit i.
func (b BitSet) Clear(i int) {
	if i < 0 || i >= len(b)*8 {
		panic(fmt.Sprintf("packet: bit %d out of range (%d bits)", i, len(b)*8))
	}
	b[i/8] &^= 1 << (i % 8)
}

// Get reports bit i; out-of-range bits read as false.
func (b BitSet) Get(i int) bool {
	if i < 0 || i >= len(b)*8 {
		return false
	}
	return b[i/8]&(1<<(i%8)) != 0
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	n := 0
	for _, x := range b {
		for x != 0 {
			n += int(x & 1)
			x >>= 1
		}
	}
	return n
}

// Clone returns an independent copy.
func (b BitSet) Clone() BitSet {
	out := make(BitSet, len(b))
	copy(out, b)
	return out
}
