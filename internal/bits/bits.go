// Package bits provides word-level bit manipulation primitives used by the
// succinct data structures in this repository: population counts, in-word
// select, and helpers for reading and writing bit fields that straddle
// 64-bit word boundaries.
//
// All functions operate on uint64 words with bit 0 being the least
// significant bit. They are the building blocks for the rank/select
// directories in package bitvector and the packed arrays in package intvec.
package bits

import mbits "math/bits"

const (
	l8   = 0x0101010101010101 // the constant L8 of Knuth 7.1.3 / Vigna's broadword select
	msb8 = 0x8080808080808080
)

// selInByte[k<<8|b] is the position of the (k+1)-th set bit of the byte b,
// or 8 when b has at most k ones. 2 KiB, built once at init.
var selInByte [8 * 256]uint8

func init() {
	for b := 0; b < 256; b++ {
		for k := 0; k < 8; k++ {
			pos, seen := 8, 0
			for i := 0; i < 8; i++ {
				if b&(1<<uint(i)) != 0 {
					if seen == k {
						pos = i
						break
					}
					seen++
				}
			}
			selInByte[k<<8|b] = uint8(pos)
		}
	}
}

// Select64 returns the position (0-based, from the least significant bit) of
// the (k+1)-th set bit of w, i.e. the position p such that w has exactly k
// ones strictly below p and bit p set. k must satisfy 0 <= k < OnesCount(w);
// otherwise the result is 64.
//
// The implementation is branchless broadword (SWAR): byte-wise prefix
// popcounts locate the target byte with a parallel comparison against k,
// and a 2 KiB table finishes inside the byte.
//
//ringlint:hotpath
func Select64(w uint64, k int) int {
	if k < 0 || k >= mbits.OnesCount64(w) {
		return 64
	}
	// s: byte i holds the popcount of bytes 0..i of w (each value <= 64).
	s := w - ((w >> 1) & 0x5555555555555555)
	s = (s & 0x3333333333333333) + ((s >> 2) & 0x3333333333333333)
	s = ((s + (s >> 4)) & 0x0f0f0f0f0f0f0f0f) * l8
	// Per-byte compare s_i <= k: both sides are < 128, so the MSB of
	// (k|0x80) - s_i is set exactly when k >= s_i. The number of bytes
	// whose prefix count is <= k is the index of the byte holding the
	// (k+1)-th one.
	leq := ((uint64(k)*l8 | msb8) - s) & msb8
	byteOff := mbits.OnesCount64(leq) << 3
	// Ones strictly below the target byte: the previous byte's prefix count.
	prev := int((s << 8) >> uint(byteOff) & 0xff)
	return byteOff + int(selInByte[(k-prev)<<8|int(w>>uint(byteOff)&0xff)])
}

// ReadBits reads width bits (1..64) starting at absolute bit offset pos from
// the word slice data. Bits beyond the end of data are read as zero.
//
//ringlint:hotpath
func ReadBits(data []uint64, pos uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	wordIdx := pos >> 6
	bitIdx := uint(pos & 63)
	if wordIdx >= uint64(len(data)) {
		return 0
	}
	v := data[wordIdx] >> bitIdx
	got := 64 - bitIdx
	if got < width && wordIdx+1 < uint64(len(data)) {
		v |= data[wordIdx+1] << got
	}
	if width == 64 {
		return v
	}
	return v & ((uint64(1) << width) - 1)
}

// WriteBits writes the width (1..64) low bits of v at absolute bit offset
// pos into data. The caller must ensure data is large enough.
func WriteBits(data []uint64, pos uint64, width uint, v uint64) {
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (uint64(1) << width) - 1
	}
	wordIdx := pos >> 6
	bitIdx := uint(pos & 63)
	data[wordIdx] &^= maskAt(bitIdx, width)
	data[wordIdx] |= v << bitIdx
	if spill := bitIdx + width; spill > 64 {
		rem := spill - 64
		data[wordIdx+1] &^= (uint64(1) << rem) - 1
		data[wordIdx+1] |= v >> (64 - bitIdx)
	}
}

// maskAt returns a mask with width bits set starting at bit offset off,
// truncated at the word boundary.
func maskAt(off, width uint) uint64 {
	if width >= 64 {
		return ^uint64(0) << off
	}
	return ((uint64(1) << width) - 1) << off
}

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n uint64) int {
	return int((n + 63) / 64)
}

// Len returns the number of bits needed to represent v (Len(0) == 1, so a
// packed array of zeros still has nonzero width).
func Len(v uint64) uint {
	if v == 0 {
		return 1
	}
	return uint(mbits.Len64(v))
}
