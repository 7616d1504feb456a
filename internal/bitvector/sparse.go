package bitvector

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/bits"
)

// Sparse is an Elias–Fano encoded bitvector: n set bits over a universe of
// m positions stored in n·(2 + log₂(m/n)) + o(n) bits, with constant-time
// Select1 and logarithmic Rank1. It is the representation the paper's
// footnote 2 proposes for the C arrays of large alphabets ("C might be
// stored as a bitvector to save space"), where C[i] is recovered by select
// and the forward leap's binary search becomes one select0.
type Sparse struct {
	n int // number of set bits
	m int // universe (vector length)
	// low may alias a read-only memory-mapped file when the vector was
	// decoded by DecodeSparse; never write to it after construction.
	//ringlint:viewed
	low  []uint64
	lw   uint   // low bits per element
	high *Plain // unary-coded high parts: one (val>>lw)+index per element
}

// NewSparse builds a Sparse vector of length m whose set bits are the
// given sorted, distinct positions.
func NewSparse(m int, ones []int) *Sparse {
	if !sort.IntsAreSorted(ones) {
		panic("bitvector: NewSparse requires sorted positions")
	}
	n := len(ones)
	s := &Sparse{n: n, m: m}
	if n > 0 && ones[n-1] >= m {
		panic(fmt.Sprintf("bitvector: position %d outside universe %d", ones[n-1], m))
	}
	// Low width: log2(m/n), clamped to [0, 64).
	s.lw = 0
	if n > 0 {
		for (uint64(m) >> s.lw) > uint64(n) {
			s.lw++
		}
	}
	s.low = make([]uint64, bits.WordsFor(uint64(n)*uint64(s.lw)))
	hb := NewBuilder(n + (m >> s.lw) + 2)
	prev := -1
	for j, p := range ones {
		if p <= prev {
			panic("bitvector: NewSparse requires strictly increasing positions")
		}
		prev = p
		if s.lw > 0 {
			//ringlint:allow viewsafe -- buffer freshly allocated by this builder, never view-aliased
			bits.WriteBits(s.low, uint64(j)*uint64(s.lw), s.lw, uint64(p)&((1<<s.lw)-1))
		}
		hb.Set((p >> s.lw) + j)
	}
	s.high = hb.BuildPlain()
	return s
}

// Len returns the universe size.
func (s *Sparse) Len() int { return s.m }

// Ones returns the number of set bits.
func (s *Sparse) Ones() int { return s.n }

// value returns the position of the j-th one (0-based j).
//
//ringlint:hotpath
func (s *Sparse) value(j int) int {
	hp := s.high.Select1(j + 1)
	hi := hp - j
	lo := 0
	if s.lw > 0 {
		lo = int(bits.ReadBits(s.low, uint64(j)*uint64(s.lw), s.lw))
	}
	return hi<<s.lw | lo
}

// Select1 returns the position of the k-th one (1-based), or -1.
//
//ringlint:hotpath
func (s *Sparse) Select1(k int) int {
	if k < 1 || k > s.n {
		return -1
	}
	return s.value(k - 1)
}

// Rank1 returns the number of ones in [0, i).
func (s *Sparse) Rank1(i int) int {
	if i <= 0 || s.n == 0 {
		return 0
	}
	if i > s.m {
		i = s.m
	}
	h := i >> s.lw
	// Ones with high part < h come before the h-th zero of the unary
	// stream; within the equal-high-part run, binary search the low bits.
	var lo, hi int // candidate range of one-indices (0-based, exclusive hi)
	if h == 0 {
		lo = 0
	} else {
		z := s.high.Select0(h)
		if z < 0 { // fewer than h zeros: all ones have high part < h
			return s.n
		}
		lo = z - h + 1 // ones before the h-th zero
	}
	z := s.high.Select0(h + 1)
	if z < 0 {
		hi = s.n
	} else {
		hi = z - h
	}
	// Among ones lo..hi-1 (high part == h), count those with value < i.
	target := uint64(i) & ((1 << s.lw) - 1)
	if s.lw == 0 {
		// All values in the run equal h; value < i iff h < i, i.e. always
		// false here since h == i (lw==0 → h==i).
		return lo
	}
	cnt := sort.Search(hi-lo, func(k int) bool {
		return bits.ReadBits(s.low, uint64(lo+k)*uint64(s.lw), s.lw) >= target
	})
	return lo + cnt
}

// Rank0 returns the number of zeros in [0, i).
func (s *Sparse) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i > s.m {
		i = s.m
	}
	return i - s.Rank1(i)
}

// Get reports whether bit i is set.
func (s *Sparse) Get(i int) bool {
	if i < 0 || i >= s.m {
		panic(fmt.Sprintf("bitvector: Get(%d) out of range [0,%d)", i, s.m))
	}
	return s.Rank1(i+1) > s.Rank1(i)
}

// Select0 returns the position of the k-th zero (1-based), or -1. It
// binary-searches Rank0, costing O(log m) — sufficient for the C-array
// use, where select0 replaces a binary search anyway.
func (s *Sparse) Select0(k int) int {
	zeros := s.m - s.n
	if k < 1 || k > zeros {
		return -1
	}
	lo, hi := 0, s.m-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Rank0(mid+1) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SizeBytes returns the in-memory footprint.
func (s *Sparse) SizeBytes() int {
	return 8*len(s.low) + s.high.SizeBytes() + 40
}

// --- serialization ---

const sparseMagic = uint64(0x52494e4745464256) // "RINGEFBV"

// WriteTo serializes the vector.
func (s *Sparse) WriteTo(w io.Writer) (int64, error) {
	cw := newCountWriter(w)
	if err := writeUint64s(cw, sparseMagic, uint64(s.n), uint64(s.m), uint64(s.lw), uint64(len(s.low))); err != nil {
		return cw.n, err
	}
	if err := writeUint64Slice(cw, s.low); err != nil {
		return cw.n, err
	}
	if _, err := s.high.WriteTo(cw); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// DecodeSparse deserializes a Sparse vector written by WriteTo at src's
// offset, aliasing the low-bits payload (and the nested Plain high
// vector's words) when possible.
func DecodeSparse(src *bits.ByteSource) (*Sparse, error) {
	hdr, err := src.U64s(5)
	if err != nil {
		return nil, err
	}
	if hdr[0] != sparseMagic {
		return nil, errors.New("bitvector: bad magic for Sparse vector")
	}
	s := &Sparse{n: int(hdr[1]), m: int(hdr[2]), lw: uint(hdr[3])}
	if s.n < 0 || s.m < 0 || s.lw > 63 ||
		int(hdr[4]) != bits.WordsFor(uint64(s.n)*uint64(s.lw)) {
		return nil, errors.New("bitvector: corrupt Sparse header")
	}
	if s.low, err = src.Words(int(hdr[4])); err != nil {
		return nil, err
	}
	if s.high, err = DecodePlain(src); err != nil {
		return nil, err
	}
	// NewSparse sizes the unary stream as n + (m>>lw) + 2 bits with one
	// set bit per element, which ties the header to the serialized high
	// vector: a corrupt n, m, or lw that slipped past the checks above
	// breaks one of the relations. (The Plain's rank directory is rebuilt
	// from the payload, so Ones is trustworthy and select is total for
	// k <= n afterwards.)
	if s.n > s.m || s.high.Len() != s.n+(s.m>>s.lw)+2 || s.high.Ones() != s.n {
		return nil, errors.New("bitvector: Sparse high vector inconsistent with header")
	}
	return s, nil
}
