package bitvector

import (
	"errors"
	"fmt"
	"io"
	mbits "math/bits"

	"repro/internal/bits"
)

// RRR is a compressed bitvector following the Raman–Raman–Rao block
// encoding. The vector is cut into blocks of b bits; each block is stored
// as its class (popcount, in ⌈log₂(b+1)⌉ bits) plus an offset identifying
// the block among all b-bit words of that class (in ⌈log₂ C(b,class)⌉
// bits). A sampled directory of cumulative ranks and offset-stream
// positions supports rank and select.
//
// Larger block sizes compress closer to the zero-order entropy of the
// vector but pay a linear-in-b decode cost per query, matching the
// trade-off the paper reports for its C-Ring (b=16) and archival (b=64)
// variants. Block sizes from 1 to 64 are supported (binomials up to
// C(64,32) fit in a uint64).
type RRR struct {
	n         int
	blockSize int
	sbRate    int // blocks per superblock
	ones      int

	classWidth uint
	// classes and offsets may alias a read-only memory-mapped file when
	// the vector was decoded by DecodeRRR; never write to them after
	// construction.
	//ringlint:viewed
	classes []uint64 // packed classWidth-bit class per block
	//ringlint:viewed
	offsets   []uint64 // concatenated variable-width offsets
	offsetLen uint64   // total bits used in offsets

	superRank []uint32 // cumulative ones before each superblock
	superOff  []uint32 // offset-stream bit position at each superblock

	// Select directories (see select.go): superblock index of every
	// selSampleRate-th one and zero. Rebuilt on load, never serialized.
	//ringlint:derived
	selOne []uint32
	//ringlint:derived
	selZero []uint32

	// Shared per-block-size decode tables, reattached on load.
	//ringlint:derived
	tab *binomTable
}

// DefaultRRRSampleRate is the number of blocks per rank/select superblock.
// At block size 16 a superblock spans 512 data bits and stores two 32-bit
// samples — a 12.5% directory overhead, paid once on top of the
// class/offset encoding — while keeping the per-query class walk short.
const DefaultRRRSampleRate = 32

// binomTable caches binomial coefficients C(i,j) for i,j <= 64 and the
// offset widths per class for one block size. For block sizes up to 16 a
// direct (class, offset) -> block-word decode table is materialised
// lazily (2^bs uint16 entries in total), making per-block decoding one
// array lookup — the same trick sdsl uses for its 15-bit blocks.
type binomTable struct {
	binom [65][65]uint64
	width [65]uint // width[c] = ceil(log2 C(blockSize, c))
	bs    int
	dec   [][]uint16 // dec[class][offset] = block word; nil if bs > 16
}

var binomTables [65]*binomTable

func init() {
	for b := 1; b <= 64; b++ {
		t := &binomTable{bs: b}
		for i := 0; i <= 64; i++ {
			t.binom[i][0] = 1
			for j := 1; j <= i; j++ {
				t.binom[i][j] = t.binom[i-1][j-1] + t.binom[i-1][j]
			}
		}
		for c := 0; c <= b; c++ {
			v := t.binom[b][c]
			if v <= 1 {
				t.width[c] = 0
			} else {
				t.width[c] = uint(mbits.Len64(v - 1))
			}
		}
		if b <= 16 {
			t.buildDecodeTable()
		}
		binomTables[b] = t
	}
}

// buildDecodeTable materialises the direct decode table (bs <= 16 only).
func (t *binomTable) buildDecodeTable() {
	dec := make([][]uint16, t.bs+1)
	for c := 0; c <= t.bs; c++ {
		dec[c] = make([]uint16, t.binom[t.bs][c])
	}
	for w := uint64(0); w < 1<<uint(t.bs); w++ {
		c := mbits.OnesCount64(w)
		dec[c][t.encodeBlock(w)] = uint16(w)
	}
	t.dec = dec
}

// rankInBlock returns the number of ones among the rem lowest bits of the
// block identified by (class, off). For small blocks it is one table
// lookup plus a popcount; for large blocks it decodes positions from the
// highest down and exits as soon as the remaining ones must all lie below
// rem.
//
//ringlint:hotpath
func (t *binomTable) rankInBlock(class int, off uint64, rem uint) int {
	if class > t.bs || off >= t.binom[t.bs][class] {
		return 0 // corrupt (viewed) payload; reject without panicking
	}
	if t.dec != nil {
		return mbits.OnesCount64(uint64(t.dec[class][off]) & ((1 << rem) - 1))
	}
	p := t.bs - 1
	for i := class; i >= 1; i-- {
		for t.binom[p][i] > off {
			p--
		}
		if uint(p) < rem {
			return i // this one and every remaining one is below rem
		}
		off -= t.binom[p][i]
		p--
	}
	return 0
}

// encodeBlock returns the combinatorial-number-system rank of the b-bit
// word w among all words with the same popcount, using colex order: with
// one-positions p1 < p2 < ... < pc, the rank is sum_i C(p_i, i).
func (t *binomTable) encodeBlock(w uint64) uint64 {
	var off uint64
	i := 1
	for w != 0 {
		p := mbits.TrailingZeros64(w)
		off += t.binom[p][i]
		i++
		w &= w - 1
	}
	return off
}

// decodeBlock reconstructs the block word from its class and offset.
//
//ringlint:hotpath
func (t *binomTable) decodeBlock(class int, off uint64) uint64 {
	if class > t.bs || off >= t.binom[t.bs][class] {
		return 0 // corrupt (viewed) payload; reject without panicking
	}
	if t.dec != nil {
		return uint64(t.dec[class][off])
	}
	var w uint64
	p := t.bs - 1
	for i := class; i >= 1; i-- {
		for t.binom[p][i] > off {
			p--
		}
		w |= 1 << uint(p)
		off -= t.binom[p][i]
		p--
	}
	return w
}

// NewRRR builds an RRR vector of length n with the given block size, whose
// set bits are given by get.
func NewRRR(n, blockSize int, get func(i int) bool) *RRR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if get(i) {
			b.Set(i)
		}
	}
	return b.BuildRRR(blockSize)
}

// RRRFromWords builds an RRR vector with the given block size over the
// first n bits of words, which must be zero past n. The words are read,
// not retained.
func RRRFromWords(words []uint64, n, blockSize int) *RRR {
	if blockSize < 1 || blockSize > 64 {
		panic(fmt.Sprintf("bitvector: RRR block size %d out of [1,64]", blockSize))
	}
	tab := binomTables[blockSize]
	nBlocks := (n + blockSize - 1) / blockSize
	r := &RRR{
		n:          n,
		blockSize:  blockSize,
		sbRate:     DefaultRRRSampleRate,
		classWidth: bits.Len(uint64(blockSize)),
		tab:        tab,
	}
	// First pass: total offset bits.
	var offBits uint64
	for blk := 0; blk < nBlocks; blk++ {
		w := r.blockWordFrom(words, blk)
		offBits += uint64(tab.width[mbits.OnesCount64(w)])
	}
	nSuper := (nBlocks + r.sbRate - 1) / r.sbRate
	r.classes = make([]uint64, bits.WordsFor(uint64(nBlocks)*uint64(r.classWidth)))
	r.offsets = make([]uint64, bits.WordsFor(offBits))
	r.offsetLen = offBits
	if uint64(n) >= 1<<32 || offBits >= 1<<32 {
		panic("bitvector: RRR vectors beyond 2^32 bits are unsupported")
	}
	r.superRank = make([]uint32, nSuper+1)
	r.superOff = make([]uint32, nSuper+1)

	var rank, pos uint64
	for blk := 0; blk < nBlocks; blk++ {
		if blk%r.sbRate == 0 {
			sb := blk / r.sbRate
			r.superRank[sb] = uint32(rank)
			r.superOff[sb] = uint32(pos)
		}
		w := r.blockWordFrom(words, blk)
		c := mbits.OnesCount64(w)
		//ringlint:allow viewsafe -- buffer freshly allocated by this builder, never view-aliased
		bits.WriteBits(r.classes, uint64(blk)*uint64(r.classWidth), r.classWidth, uint64(c))
		if wd := tab.width[c]; wd > 0 {
			//ringlint:allow viewsafe -- buffer freshly allocated by this builder, never view-aliased
			bits.WriteBits(r.offsets, pos, wd, tab.encodeBlock(w))
			pos += uint64(wd)
		}
		rank += uint64(c)
	}
	r.superRank[nSuper] = uint32(rank)
	r.superOff[nSuper] = uint32(pos)
	r.ones = int(rank)
	r.buildSelectSamples()
	return r
}

// buildSelectSamples derives the select directories from the rank
// superblocks. Called after construction and after deserialization.
func (r *RRR) buildSelectSamples() {
	nSuper := len(r.superRank) - 1
	r.selOne = buildSelectSamples(r.ones, nSuper, func(sb int) int {
		return int(r.superRank[sb])
	})
	r.selZero = buildSelectSamples(r.n-r.ones, nSuper, r.zerosBefore)
}

// zerosBefore returns the number of zero bits before superblock sb.
func (r *RRR) zerosBefore(sb int) int {
	b := sb * r.sbRate * r.blockSize
	if b > r.n {
		b = r.n
	}
	return b - int(r.superRank[sb])
}

// blockWordFrom extracts block blk (blockSize bits) from the raw words,
// masking bits past position n.
func (r *RRR) blockWordFrom(words []uint64, blk int) uint64 {
	start := uint64(blk) * uint64(r.blockSize)
	w := bits.ReadBits(words, start, uint(r.blockSize))
	if end := start + uint64(r.blockSize); end > uint64(r.n) {
		valid := uint(uint64(r.n) - start)
		w &= (uint64(1) << valid) - 1
	}
	return w
}

// class returns block blk's popcount class. Corrupt (viewed) payloads can
// hold class values up to 2^classWidth-1 > blockSize, which would overrun
// the binomial tables downstream, so out-of-range reads clamp to 0.
//
//ringlint:hotpath
func (r *RRR) class(blk int) int {
	pos := uint64(blk) * uint64(r.classWidth)
	if pos+uint64(r.classWidth) > uint64(len(r.classes))*64 {
		return 0
	}
	c := int(bits.ReadBits(r.classes, pos, r.classWidth))
	if c > r.blockSize {
		return 0
	}
	return c
}

// blockAt decodes block blk given the bit position of its offset in the
// offset stream.
//
//ringlint:hotpath
func (r *RRR) blockAt(blk int, offPos uint64) uint64 {
	c := r.class(blk)
	wd := r.tab.width[c]
	var off uint64
	if wd > 0 && offPos+uint64(wd) <= uint64(len(r.offsets))*64 {
		off = bits.ReadBits(r.offsets, offPos, wd)
	}
	return r.tab.decodeBlock(c, off)
}

// seekBlock walks from blk's superblock boundary to blk, returning the
// cumulative rank before blk and the offset-stream position of blk.
//
//ringlint:hotpath
func (r *RRR) seekBlock(blk int) (rankBefore int, offPos uint64) {
	sb := blk / r.sbRate
	rank := uint64(r.superRank[sb])
	pos := uint64(r.superOff[sb])
	cw := uint64(r.classWidth)
	bitPos := uint64(sb*r.sbRate) * cw
	for b := sb * r.sbRate; b < blk; b++ {
		c := bits.ReadBits(r.classes, bitPos, r.classWidth)
		bitPos += cw
		if c > uint64(r.blockSize) {
			c = 0 // corrupt payload: clamp before indexing the width table
		}
		rank += c
		pos += uint64(r.tab.width[c])
	}
	return int(rank), pos
}

// Len returns the number of bits.
func (r *RRR) Len() int { return r.n }

// Ones returns the number of set bits.
func (r *RRR) Ones() int { return r.ones }

// Get reports whether bit i is set.
//
//ringlint:hotpath
func (r *RRR) Get(i int) bool {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("bitvector: Get(%d) out of range [0,%d)", i, r.n))
	}
	blk := i / r.blockSize
	_, pos := r.seekBlock(blk)
	w := r.blockAt(blk, pos)
	return w&(1<<uint(i%r.blockSize)) != 0
}

// Rank1 returns the number of ones in [0, i).
//
//ringlint:hotpath
func (r *RRR) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= r.n {
		return r.ones
	}
	blk := i / r.blockSize
	rank, pos := r.seekBlock(blk)
	if rem := uint(i % r.blockSize); rem != 0 {
		c := r.class(blk)
		wd := r.tab.width[c]
		var off uint64
		if wd > 0 && pos+uint64(wd) <= uint64(len(r.offsets))*64 {
			off = bits.ReadBits(r.offsets, pos, wd)
		}
		rank += r.tab.rankInBlock(c, off, rem)
	}
	return rank
}

// Rank0 returns the number of zeros in [0, i).
//
//ringlint:hotpath
func (r *RRR) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i > r.n {
		i = r.n
	}
	return i - r.Rank1(i)
}

// Select1 returns the position of the k-th one (1-based), or -1.
//
//ringlint:hotpath
func (r *RRR) Select1(k int) int {
	if k < 1 || k > r.ones {
		return -1
	}
	if ringdebugEnabled {
		r.debugCheckDirectory()
	}
	// Narrow to the window between two select samples, then find the last
	// superblock with cumulative rank < k.
	lo, hi := selectWindow(r.selOne, k, len(r.superRank)-2)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(r.superRank[mid]) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(r.superRank[lo])
	pos := uint64(r.superOff[lo])
	blk := lo * r.sbRate
	// On well-formed input the walk always finds the k-th one inside this
	// superblock; bounding it keeps corrupt payloads from reading past the
	// class stream or looping forever.
	for nBlocks := (r.n + r.blockSize - 1) / r.blockSize; blk < nBlocks; blk++ {
		c := r.class(blk)
		if rem <= c {
			w := r.blockAt(blk, pos)
			res := blk*r.blockSize + bits.Select64(w, rem-1)
			if ringdebugEnabled {
				r.debugCheckSelect(k, res, true)
			}
			return res
		}
		rem -= c
		pos += uint64(r.tab.width[c])
	}
	return -1
}

// Select0 returns the position of the k-th zero (1-based), or -1.
//
//ringlint:hotpath
func (r *RRR) Select0(k int) int {
	zeros := r.n - r.ones
	if k < 1 || k > zeros {
		return -1
	}
	if ringdebugEnabled {
		r.debugCheckDirectory()
	}
	// rank0 before superblock sb is sb*sbRate*blockSize - superRank[sb],
	// except the final partial superblock cannot precede anything here.
	lo, hi := selectWindow(r.selZero, k, len(r.superRank)-2)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.zerosBefore(mid) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - r.zerosBefore(lo)
	pos := uint64(r.superOff[lo])
	blk := lo * r.sbRate
	// Bounded for the same reason as the Select1 walk.
	for nBlocks := (r.n + r.blockSize - 1) / r.blockSize; blk < nBlocks; blk++ {
		blkLen := r.blockSize
		if end := (blk + 1) * r.blockSize; end > r.n {
			blkLen = r.n - blk*r.blockSize
		}
		c := r.class(blk)
		z := blkLen - c
		if rem <= z {
			w := r.blockAt(blk, pos)
			res := blk*r.blockSize + bits.Select64(^w, rem-1)
			if ringdebugEnabled {
				r.debugCheckSelect(k, res, false)
			}
			return res
		}
		rem -= z
		pos += uint64(r.tab.width[c])
	}
	return -1
}

// SizeBytes returns the memory footprint of the compressed structure,
// select samples included.
func (r *RRR) SizeBytes() int {
	return 8*(len(r.classes)+len(r.offsets)) + 4*(len(r.superRank)+len(r.superOff)) +
		4*(len(r.selOne)+len(r.selZero)) + 48
}

// BlockSize returns the configured block size b.
func (r *RRR) BlockSize() int { return r.blockSize }

// --- serialization ---

const rrrMagic = uint64(0x52494e4752525221) // "RINGRRR!"

// WriteTo serializes the vector, directories included.
func (r *RRR) WriteTo(w io.Writer) (int64, error) {
	cw := newCountWriter(w)
	hdr := []uint64{
		rrrMagic, uint64(r.n), uint64(r.blockSize), uint64(r.sbRate),
		uint64(r.ones), r.offsetLen,
		uint64(len(r.classes)), uint64(len(r.offsets)), uint64(len(r.superRank)),
	}
	if err := writeUint64s(cw, hdr...); err != nil {
		return cw.n, err
	}
	for _, s := range [][]uint64{r.classes, r.offsets, widen(r.superRank), widen(r.superOff)} {
		if err := writeUint64Slice(cw, s); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

func widen(xs []uint32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func narrow(xs []uint64) ([]uint32, error) {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		if x >= 1<<32 {
			return nil, errors.New("bitvector: RRR directory value overflows 32 bits")
		}
		out[i] = uint32(x)
	}
	return out, nil
}

// DecodeRRR deserializes an RRR vector written by WriteTo at src's
// offset. The classes and offsets payloads alias the source when
// possible; the uint32 rank/offset directories and select samples are
// always rebuilt or copied onto the heap (they are o(n) and need a width
// change anyway).
func DecodeRRR(src *bits.ByteSource) (*RRR, error) {
	hdr, err := src.U64s(9)
	if err != nil {
		return nil, err
	}
	if hdr[0] != rrrMagic {
		return nil, errors.New("bitvector: bad magic for RRR vector")
	}
	r := &RRR{
		n:         int(hdr[1]),
		blockSize: int(hdr[2]),
		sbRate:    int(hdr[3]),
		ones:      int(hdr[4]),
		offsetLen: hdr[5],
	}
	if r.blockSize < 1 || r.blockSize > 64 || r.n < 0 || r.sbRate < 1 {
		return nil, fmt.Errorf("bitvector: corrupt RRR header (n=%d b=%d sb=%d)", r.n, r.blockSize, r.sbRate)
	}
	r.classWidth = bits.Len(uint64(r.blockSize))
	r.tab = binomTables[r.blockSize]
	nBlocks := (r.n + r.blockSize - 1) / r.blockSize
	nSuper := (nBlocks + r.sbRate - 1) / r.sbRate
	if int(hdr[6]) != bits.WordsFor(uint64(nBlocks)*uint64(r.classWidth)) ||
		int(hdr[7]) != bits.WordsFor(r.offsetLen) || int(hdr[8]) != nSuper+1 {
		return nil, errors.New("bitvector: corrupt RRR section lengths")
	}
	if r.classes, err = src.Words(int(hdr[6])); err != nil {
		return nil, err
	}
	if r.offsets, err = src.Words(int(hdr[7])); err != nil {
		return nil, err
	}
	// The serialized uint32 directories are widened to uint64 on disk;
	// narrow always copies, so they never alias the source buffer.
	rawRank, err := src.Words(int(hdr[8]))
	if err != nil {
		return nil, err
	}
	if r.superRank, err = narrow(rawRank); err != nil {
		return nil, err
	}
	rawOff, err := src.Words(int(hdr[8]))
	if err != nil {
		return nil, err
	}
	if r.superOff, err = narrow(rawOff); err != nil {
		return nil, err
	}
	// The select-sample rebuild walks the rank directory up to the ones
	// (and zeros) count; a stream whose directory disagrees with the
	// header must be rejected, not walked past. The zeros side also
	// catches an absurd sbRate: it overflows the superblock→bit products
	// zerosBefore relies on, making the count disagree.
	if int(r.superRank[len(r.superRank)-1]) != r.ones {
		return nil, errors.New("bitvector: RRR rank directory inconsistent with ones count")
	}
	if r.zerosBefore(len(r.superRank)-1) != r.n-r.ones {
		return nil, errors.New("bitvector: RRR rank directory inconsistent with zeros count")
	}
	// Select narrows between superblocks by binary search, which assumes
	// monotone directories; the offset positions must also stay inside
	// the offset stream or block decoding would read past the payload.
	for i := 0; i+1 < len(r.superRank); i++ {
		if r.superRank[i] > r.superRank[i+1] || r.superOff[i] > r.superOff[i+1] {
			return nil, errors.New("bitvector: RRR superblock directory not monotone")
		}
	}
	if uint64(r.superOff[len(r.superOff)-1]) > r.offsetLen {
		return nil, errors.New("bitvector: RRR superblock offsets exceed the offset stream")
	}
	r.buildSelectSamples()
	return r, nil
}
