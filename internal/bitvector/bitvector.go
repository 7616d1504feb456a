// Package bitvector implements succinct bitvectors with constant-time rank
// and logarithmic-time select, in two flavours:
//
//   - Plain: an uncompressed bitvector with a two-level rank directory
//     (o(n) bits on top of the data), used by the paper's "Ring" variant.
//   - RRR: a compressed bitvector following Raman, Raman and Rao's
//     class/offset block encoding, with a configurable block size b
//     (larger b compresses better but is slower to query), used by the
//     paper's "C-Ring" variant (b=16) and its archival variant (b=64).
//
// Both satisfy the Vector interface consumed by package wavelet.
//
// Conventions: positions are 0-based. Rank1(i) counts ones in the prefix
// [0, i) — so Rank1(0) == 0 and Rank1(Len()) == Ones(). Select1(k) is
// 1-based: it returns the position of the k-th one for k in [1, Ones()],
// and -1 outside that range. Select0 is symmetric for zeros.
package bitvector

import (
	"errors"
	"fmt"
	"io"
	mbits "math/bits"

	"repro/internal/bits"
)

// Vector is the read interface shared by all bitvector implementations.
type Vector interface {
	// Len returns the number of bits in the vector.
	Len() int
	// Get reports whether bit i is set. It panics if i is out of range.
	Get(i int) bool
	// Rank1 returns the number of set bits in the prefix [0, i), 0 <= i <= Len().
	Rank1(i int) int
	// Rank0 returns the number of zero bits in the prefix [0, i).
	Rank0(i int) int
	// Select1 returns the position of the k-th set bit (1-based), or -1 if
	// k is out of [1, Ones()].
	Select1(k int) int
	// Select0 returns the position of the k-th zero bit (1-based), or -1.
	Select0(k int) int
	// Ones returns the total number of set bits.
	Ones() int
	// SizeBytes returns the in-memory footprint of the structure, including
	// rank/select directories, in bytes.
	SizeBytes() int
}

// superBits is the rank superblock size in bits for Plain. One absolute
// cumulative count is stored per superblock; ranks inside a superblock are
// resolved with at most superBits/64 popcounts.
const superBits = 512

const superWords = superBits / 64

// Plain is an uncompressed bitvector with a two-level rank directory
// (absolute counts per 512-bit superblock, relative counts per word),
// giving constant-time rank with one popcount. The o(n) directory costs
// ~37.5% over the raw bits — the same order as the 57% rank/select
// overhead the paper reports for its plain configuration.
// The zero value is an empty vector; use a Builder or PlainFromWords to
// create one.
type Plain struct {
	// words may alias a read-only memory-mapped file when the vector was
	// decoded by DecodePlain; it must never be written to after
	// construction.
	//ringlint:viewed
	words []uint64
	n     int

	// Rank directory, derived from words by buildDirectory: rebuilt on
	// load, never serialized.
	//ringlint:derived
	super []uint64 // super[j] = Rank1(j*superBits)
	//ringlint:derived
	sub []uint16 // sub[w] = ones in the superblock before word w
	//ringlint:derived
	ones int

	// Select directories (see select.go): superblock index of every
	// selSampleRate-th one and zero. Rebuilt on load, never serialized.
	//ringlint:derived
	selOne []uint32
	//ringlint:derived
	selZero []uint32
}

// PlainFromWords builds a Plain bitvector over the first n bits of words.
// The slice is retained, not copied; words must not be mutated afterwards.
func PlainFromWords(words []uint64, n int) *Plain {
	if need := bits.WordsFor(uint64(n)); len(words) < need {
		panic(fmt.Sprintf("bitvector: %d words cannot hold %d bits", len(words), n))
	}
	// Clear tail bits past n so popcounts and select scans are exact.
	if tail := uint(n & 63); tail != 0 {
		words[n>>6] &= (uint64(1) << tail) - 1
	}
	for i := bits.WordsFor(uint64(n)); i < len(words); i++ {
		words[i] = 0
	}
	p := &Plain{words: words, n: n}
	p.buildDirectory()
	return p
}

func (p *Plain) buildDirectory() {
	nSuper := (p.n + superBits - 1) / superBits
	p.super = make([]uint64, nSuper+1)
	p.sub = make([]uint16, len(p.words))
	cum := 0
	for j := 0; j < nSuper; j++ {
		p.super[j] = uint64(cum)
		lo := j * superWords
		hi := lo + superWords
		if hi > len(p.words) {
			hi = len(p.words)
		}
		within := 0
		for w := lo; w < hi; w++ {
			p.sub[w] = uint16(within)
			within += mbits.OnesCount64(p.words[w])
		}
		cum += within
	}
	p.super[nSuper] = uint64(cum)
	p.ones = cum
	p.selOne = buildSelectSamples(p.ones, nSuper, func(sb int) int {
		return int(p.super[sb])
	})
	p.selZero = buildSelectSamples(p.n-p.ones, nSuper, p.zerosBefore)
}

// zerosBefore returns the number of zero bits before superblock sb.
func (p *Plain) zerosBefore(sb int) int {
	b := sb * superBits
	if b > p.n {
		b = p.n
	}
	return b - int(p.super[sb])
}

// Len returns the number of bits.
func (p *Plain) Len() int { return p.n }

// Ones returns the number of set bits.
func (p *Plain) Ones() int { return p.ones }

// Get reports whether bit i is set.
//
//ringlint:hotpath
func (p *Plain) Get(i int) bool {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("bitvector: Get(%d) out of range [0,%d)", i, p.n))
	}
	return p.words[i>>6]&(1<<uint(i&63)) != 0
}

// Rank1 returns the number of ones in [0, i), in constant time.
//
//ringlint:hotpath
func (p *Plain) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= p.n {
		return p.ones
	}
	w := i >> 6
	r := int(p.super[i/superBits]) + int(p.sub[w])
	if rem := uint(i & 63); rem != 0 {
		r += mbits.OnesCount64(p.words[w] & ((1 << rem) - 1))
	}
	return r
}

// Rank1Pair returns Rank1(i) and Rank1(j) for a nonempty range
// 0 <= i < j <= Len(), the pair step of a wavelet descent. It reads i's
// word and j-1's, both inside the vector (Rank1 needs a branch for an
// end at Len() on a word boundary), with no branch at all: when both
// ends fall in one word, as most do, the second lookup hits the cache
// lines the first loaded. That keeps it inlinable, which a branch to
// share the lookup is not.
//
//ringlint:hotpath
func (p *Plain) Rank1Pair(i, j int) (int, int) {
	j--
	ri := int(p.super[uint(i)/superBits]) + int(p.sub[i>>6]) + mbits.OnesCount64(p.words[i>>6]&(1<<(i&63)-1))
	rj := int(p.super[uint(j)/superBits]) + int(p.sub[j>>6]) + mbits.OnesCount64(p.words[j>>6]&(2<<(j&63)-1))
	if ringdebugEnabled {
		p.debugCheckRank1Pair(i, j+1, ri, rj)
	}
	return ri, rj
}

// Rank1Bit returns Rank1(i) and bit i as 0 or 1, for 0 <= i < Len(),
// from one directory lookup and one word read: the step a wavelet
// descent takes when its range is a single position.
//
//ringlint:hotpath
func (p *Plain) Rank1Bit(i int) (int, uint) {
	w := i >> 6
	word := p.words[w]
	r := int(p.super[uint(i)/superBits]) + int(p.sub[w]) + mbits.OnesCount64(word&(1<<(uint(i)&63)-1))
	b := uint(word>>(uint(i)&63)) & 1
	if ringdebugEnabled {
		p.debugCheckRank1Bit(i, r, b)
	}
	return r, b
}

// Rank0 returns the number of zeros in [0, i).
//
//ringlint:hotpath
func (p *Plain) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i > p.n {
		i = p.n
	}
	return i - p.Rank1(i)
}

// Select1 returns the position of the k-th one (1-based), or -1.
//
//ringlint:hotpath
func (p *Plain) Select1(k int) int {
	if k < 1 || k > p.ones {
		return -1
	}
	if ringdebugEnabled {
		p.debugCheckDirectory()
	}
	// Narrow to the window between two select samples, then binary search
	// it for the last superblock whose cumulative rank is < k.
	lo, hi := selectWindow(p.selOne, k, len(p.super)-2)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(p.super[mid]) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(p.super[lo]) // rem >= 1: ones still to find
	start := lo * superWords
	end := start + superWords
	if end > len(p.words) {
		end = len(p.words)
	}
	w := start
	for w+1 < end && int(p.sub[w+1]) < rem {
		w++
	}
	res := w*64 + bits.Select64(p.words[w], rem-int(p.sub[w])-1)
	if ringdebugEnabled {
		p.debugCheckSelect(k, res, true)
	}
	return res
}

// Select0 returns the position of the k-th zero (1-based), or -1.
//
//ringlint:hotpath
func (p *Plain) Select0(k int) int {
	zeros := p.n - p.ones
	if k < 1 || k > zeros {
		return -1
	}
	if ringdebugEnabled {
		p.debugCheckDirectory()
	}
	// rank0 at superblock j is j*superBits - super[j].
	lo, hi := selectWindow(p.selZero, k, len(p.super)-2)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*superBits-int(p.super[mid]) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - (lo*superBits - int(p.super[lo]))
	start := lo * superWords
	end := start + superWords
	if end > len(p.words) {
		end = len(p.words)
	}
	w := start
	// zeros before word w within the superblock = (w-start)*64 - sub[w].
	for w+1 < end && (w+1-start)*64-int(p.sub[w+1]) < rem {
		w++
	}
	word := p.words[w]
	// Zeros past the end of the vector must not be counted.
	if hiBit := p.n - w*64; hiBit < 64 {
		word |= ^uint64(0) << uint(hiBit)
	}
	rem -= (w-start)*64 - int(p.sub[w])
	res := w*64 + bits.Select64(^word, rem-1)
	if ringdebugEnabled {
		p.debugCheckSelect(k, res, false)
	}
	return res
}

// SizeBytes returns the memory footprint including the rank directory and
// the select samples.
func (p *Plain) SizeBytes() int {
	return 8*len(p.words) + 8*len(p.super) + 2*len(p.sub) +
		4*(len(p.selOne)+len(p.selZero)) + 24
}

// Builder accumulates bits for a Plain or RRR vector.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a builder for a vector of n bits, all initially zero.
func NewBuilder(n int) *Builder {
	return &Builder{words: make([]uint64, bits.WordsFor(uint64(n))), n: n}
}

// Set sets bit i.
func (b *Builder) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitvector: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Len returns the length the built vector will have.
func (b *Builder) Len() int { return b.n }

// BuildPlain finalizes the builder into a Plain vector. The builder must not
// be reused afterwards.
func (b *Builder) BuildPlain() *Plain {
	return PlainFromWords(b.words, b.n)
}

// BuildRRR finalizes the builder into an RRR-compressed vector with the
// given block size (see NewRRR).
func (b *Builder) BuildRRR(blockSize int) *RRR {
	return RRRFromWords(b.words, b.n, blockSize)
}

// --- serialization ---

const plainMagic = uint64(0x52494e4750424954) // "RINGPBIT"

// WriteTo serializes the vector. The rank directory is rebuilt on load.
func (p *Plain) WriteTo(w io.Writer) (int64, error) {
	cw := newCountWriter(w)
	if err := writeUint64s(cw, plainMagic, uint64(p.n), uint64(len(p.words))); err != nil {
		return cw.n, err
	}
	if err := writeUint64Slice(cw, p.words); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// DecodePlain deserializes a Plain vector written by WriteTo at src's
// offset (bits.View decodes one from a buffer). The word payload aliases
// the source when the host is little-endian and the source is 8-byte
// aligned (copied otherwise); the rank/select directories are rebuilt on
// the heap either way. The payload may alias read-only mapped memory, so —
// unlike PlainFromWords, which clears stray tail bits in place — the
// decoder rejects a nonzero tail instead of repairing it. WriteTo always
// emits clean tails, so this only fires on corrupt or hand-forged input.
func DecodePlain(src *bits.ByteSource) (*Plain, error) {
	hdr, err := src.U64s(3)
	if err != nil {
		return nil, err
	}
	if hdr[0] != plainMagic {
		return nil, errors.New("bitvector: bad magic for Plain vector")
	}
	n, nw := int(hdr[1]), int(hdr[2])
	if n < 0 || nw != bits.WordsFor(uint64(n)) {
		return nil, fmt.Errorf("bitvector: corrupt Plain header (n=%d words=%d)", n, nw)
	}
	words, err := src.Words(nw)
	if err != nil {
		return nil, err
	}
	if tail := uint(n & 63); tail != 0 && words[nw-1]>>tail != 0 {
		return nil, fmt.Errorf("bitvector: nonzero bits past Plain length %d", n)
	}
	p := &Plain{words: words, n: n}
	p.buildDirectory()
	return p, nil
}
