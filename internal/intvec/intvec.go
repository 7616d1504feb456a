// Package intvec provides fixed-width packed integer vectors: n values of
// w bits each stored contiguously in ⌈nw/64⌉ words. They back the class
// arrays of compressed bitvectors, the C arrays of the ring, and the
// compact storage of dictionary identifiers — anywhere the paper counts
// "n log U" bits.
package intvec

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bits"
)

// Vector is an immutable fixed-width packed integer array.
type Vector struct {
	// data may alias a read-only memory-mapped file when the vector was
	// loaded through View; never write to it after construction.
	//ringlint:viewed
	data  []uint64
	n     int
	width uint
}

// New packs the given values using the smallest width that fits the
// maximum value.
func New(values []uint64) *Vector {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	return NewWidth(values, bits.Len(max))
}

// NewWidth packs the values with an explicit width (1..64 bits). It panics
// if a value does not fit.
func NewWidth(values []uint64, width uint) *Vector {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("intvec: width %d out of [1,64]", width))
	}
	v := &Vector{
		data:  make([]uint64, bits.WordsFor(uint64(len(values))*uint64(width))),
		n:     len(values),
		width: width,
	}
	var limit uint64 = ^uint64(0)
	if width < 64 {
		limit = (uint64(1) << width) - 1
	}
	for i, val := range values {
		if val > limit {
			panic(fmt.Sprintf("intvec: value %d exceeds width %d", val, width))
		}
		//ringlint:allow viewsafe -- buffer freshly allocated by this builder, never view-aliased
		bits.WriteBits(v.data, uint64(i)*uint64(width), width, val)
	}
	return v
}

// Len returns the number of values.
func (v *Vector) Len() int { return v.n }

// Width returns the per-value width in bits.
func (v *Vector) Width() uint { return v.width }

// Get returns the i-th value.
//
//ringlint:hotpath
func (v *Vector) Get(i int) uint64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("intvec: Get(%d) out of range [0,%d)", i, v.n))
	}
	return bits.ReadBits(v.data, uint64(i)*uint64(v.width), v.width)
}

// SizeBytes returns the in-memory footprint.
func (v *Vector) SizeBytes() int { return 8*len(v.data) + 24 }

// SearchPrefix performs a binary search over a vector whose values are
// non-decreasing, returning the smallest index i with Get(i) >= x, or
// Len() if none.
//
//ringlint:hotpath
func (v *Vector) SearchPrefix(x uint64) int {
	lo, hi := 0, v.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.Get(mid) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

const magic = uint64(0x52494e47495643) // "RINGIVC"

// WriteTo serializes the vector.
func (v *Vector) WriteTo(w io.Writer) (int64, error) {
	n := int64(0)
	hdr := make([]byte, 32)
	putU64 := func(off int, x uint64) {
		for i := 0; i < 8; i++ {
			hdr[off+i] = byte(x >> (8 * i))
		}
	}
	putU64(0, magic)
	putU64(8, uint64(v.n))
	putU64(16, uint64(v.width))
	putU64(24, uint64(len(v.data)))
	k, err := w.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 8)
	for _, word := range v.data {
		for i := 0; i < 8; i++ {
			buf[i] = byte(word >> (8 * i))
		}
		k, err = w.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// View deserializes a vector written by WriteTo from an in-memory
// buffer, aliasing the packed payload when possible. Returns the number
// of bytes consumed.
func View(b []byte) (*Vector, int, error) {
	return bits.View(b, "intvec", Decode)
}

// Decode deserializes a vector at src's offset.
func Decode(src *bits.ByteSource) (*Vector, error) {
	hdr, err := src.U64s(4)
	if err != nil {
		return nil, err
	}
	if hdr[0] != magic {
		return nil, errors.New("intvec: bad magic")
	}
	v := &Vector{n: int(hdr[1]), width: uint(hdr[2])}
	nWords := int(hdr[3])
	if v.width < 1 || v.width > 64 || v.n < 0 ||
		nWords != bits.WordsFor(uint64(v.n)*uint64(v.width)) {
		return nil, fmt.Errorf("intvec: corrupt header (n=%d width=%d words=%d)", v.n, v.width, nWords)
	}
	if v.data, err = src.Words(nWords); err != nil {
		return nil, err
	}
	return v, nil
}
