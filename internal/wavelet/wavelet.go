// Package wavelet implements the wavelet matrix of Claude, Navarro and
// Ordóñez: a pointerless wavelet tree over a sequence S[0..n) drawn from an
// integer alphabet [0, σ). It supports the operations the ring index needs
// (Section 2.3.4 of the paper):
//
//   - Access(i), Rank(c, i), Select(c, k) in O(log σ) time;
//   - RangeNextValue (range successor): the smallest symbol ≥ c occurring
//     in a range, in O(log σ) time — the backward leap of the ring;
//   - DistinctInRange: enumerate the distinct symbols of a range in sorted
//     order with their multiplicities, in O(k log(σ/k)) time — the ring's
//     lonely-variable reporting.
//
// The per-level bitvectors may be plain (fast, the paper's "Ring") or
// RRR-compressed (small, the paper's "C-Ring"); see Options.
package wavelet

import (
	"errors"
	"fmt"
	"io"
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/bitvector"
)

// Options selects the bitvector representation used for the matrix levels.
type Options struct {
	// Compress selects RRR-compressed level bitvectors when true, plain
	// bitvectors when false.
	Compress bool
	// RRRBlock is the RRR block size b (the paper's parameter b; 16 for
	// C-Ring, 64 for the archival variant). Ignored unless Compress is set;
	// 0 means 16.
	RRRBlock int
}

// Matrix is an immutable wavelet matrix.
type Matrix struct {
	levels []bitvector.Vector

	// Devirtualized view of levels, non-nil when every level is Plain.
	// Derived by setLevels: rebuilt on load, never serialized.
	//ringlint:derived
	plains []*bitvector.Plain

	zeros []int // zeros[l]: number of 0-bits at level l
	n     int
	sigma uint64
	width uint // number of levels = bits to code sigma-1
}

// rank1 performs a level rank through the concrete type when possible,
// letting the hot Plain.Rank1 inline.
//
//ringlint:hotpath
func (m *Matrix) rank1(l uint, i int) int {
	if m.plains != nil {
		return m.plains[l].Rank1(i)
	}
	return m.levels[l].Rank1(i) //ringlint:allow hotpath -- compressed-level fallback; the Plain fast path above stays devirtualized
}

// get reads level bit i through the concrete type when possible, same
// devirtualization pattern as rank1.
//
//ringlint:hotpath
func (m *Matrix) get(l uint, i int) bool {
	if m.plains != nil {
		return m.plains[l].Get(i)
	}
	return m.levels[l].Get(i) //ringlint:allow hotpath -- compressed-level fallback; the Plain fast path above stays devirtualized
}

// setLevels installs the level bitvectors and the devirtualized view.
func (m *Matrix) setLevels(levels []bitvector.Vector) {
	m.levels = levels
	plains := make([]*bitvector.Plain, len(levels))
	for i, lv := range levels {
		p, ok := lv.(*bitvector.Plain)
		if !ok {
			m.plains = nil
			return
		}
		plains[i] = p
	}
	m.plains = plains
}

// New builds a wavelet matrix over values, whose symbols must lie in
// [0, sigma). Building takes O(n log σ) time, two passes over the values
// per level, neither with data-dependent branches: one packs the level's
// bits 64 at a time into words handed straight to the bitvector, the
// other stable-partitions the values by that bit for the next level. The
// partitions take two more arrays of the values' type, so a caller whose
// symbols fit in 32 bits halves the build's working space by passing
// uint32 values.
func New[T uint32 | uint64](values []T, sigma uint64, opt Options) *Matrix {
	if sigma == 0 {
		sigma = 1
	}
	width := uint(1)
	if sigma > 1 {
		width = lenBits(sigma - 1)
	}
	var top T
	for _, v := range values {
		top = max(top, v)
	}
	if len(values) > 0 && uint64(top) >= sigma {
		panic(fmt.Sprintf("wavelet: value %d out of alphabet [0,%d)", top, sigma))
	}
	n := len(values)
	m := &Matrix{
		zeros: make([]int, width),
		n:     n,
		sigma: sigma,
		width: width,
	}
	levels := make([]bitvector.Vector, width)
	if opt.Compress && opt.RRRBlock == 0 {
		opt.RRRBlock = 16
	}

	// Level 0 reads values; level l partitions into bufs[l%2] for the
	// level after it.
	cur := values
	var bufs [2][]T
	for l := uint(0); l < width; l++ {
		shift := (width - 1 - l) & 63 // the mask spares each shift a range check
		words := make([]uint64, bits.WordsFor(uint64(n)))
		ones := 0
		for w := range words {
			var word uint64
			for j, v := range cur[w*64 : min(w*64+64, n)] {
				word |= uint64(v) >> shift & 1 << (uint(j) & 63)
			}
			words[w] = word
			ones += mbits.OnesCount64(word)
		}
		nz := n - ones
		m.zeros[l] = nz
		if opt.Compress {
			levels[l] = bitvector.RRRFromWords(words, n, opt.RRRBlock)
		} else {
			levels[l] = bitvector.PlainFromWords(words, n)
		}
		if l == width-1 {
			break
		}
		// Zeros first, then ones: each value goes to slot zi or oi by its
		// bit, and that cursor advances.
		if bufs[l%2] == nil {
			bufs[l%2] = make([]T, n)
		}
		next := bufs[l%2]
		zi, oi := 0, nz
		for _, v := range cur {
			b := int(uint64(v) >> shift & 1)
			next[zi+(oi-zi)*b] = v
			zi += 1 - b
			oi += b
		}
		cur = next
	}
	m.setLevels(levels)
	return m
}

func lenBits(v uint64) uint {
	w := uint(0)
	for v > 0 {
		w++
		v >>= 1
	}
	if w == 0 {
		w = 1
	}
	return w
}

// Len returns the sequence length.
func (m *Matrix) Len() int { return m.n }

// Access returns S[i].
//
//ringlint:hotpath
func (m *Matrix) Access(i int) uint64 {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("wavelet: Access(%d) out of range [0,%d)", i, m.n))
	}
	var v uint64
	for l := uint(0); l < m.width; l++ {
		v <<= 1
		if m.get(l, i) {
			v |= 1
			i = m.zeros[l] + m.rank1(l, i)
		} else {
			i -= m.rank1(l, i) // rank0
		}
		// On a well-formed matrix i stays in [0, n); a corrupt (viewed)
		// compressed level can return ranks inconsistent with its bits,
		// and the next level's get would panic.
		if i >= m.n {
			i = m.n - 1
		} else if i < 0 {
			i = 0
		}
	}
	if ringdebugEnabled {
		m.debugCheckAccess(v)
	}
	return v
}

// Rank returns the number of occurrences of c in the prefix S[0, i).
//
//ringlint:hotpath
func (m *Matrix) Rank(c uint64, i int) int {
	if c >= m.sigma || i <= 0 {
		return 0
	}
	if i > m.n {
		i = m.n
	}
	s := 0
	for l := uint(0); l < m.width; l++ {
		if (c>>(m.width-1-l))&1 == 1 {
			s = m.zeros[l] + m.rank1(l, s)
			i = m.zeros[l] + m.rank1(l, i)
		} else {
			s -= m.rank1(l, s)
			i -= m.rank1(l, i)
		}
	}
	return i - s
}

// Rank2 returns Rank(c, i) and Rank(c, j) with one shared descent: the
// block-start pointer is computed once instead of twice, saving a third
// of the bitvector ranks. It is the workhorse of the ring's Bind step
// (one LF-step needs the rank at both range endpoints).
//
//ringlint:hotpath
func (m *Matrix) Rank2(c uint64, i, j int) (int, int) {
	if c >= m.sigma {
		return 0, 0
	}
	if i < 0 {
		i = 0
	}
	if j > m.n {
		j = m.n
	}
	s := 0
	for l := uint(0); l < m.width; l++ {
		if (c>>(m.width-1-l))&1 == 1 {
			z := m.zeros[l]
			s = z + m.rank1(l, s)
			i = z + m.rank1(l, i)
			j = z + m.rank1(l, j)
		} else {
			s -= m.rank1(l, s)
			i -= m.rank1(l, i)
			j -= m.rank1(l, j)
		}
	}
	return i - s, j - s
}

// Select returns the position of the k-th occurrence of c (1-based), or -1
// if c occurs fewer than k times.
//
//ringlint:hotpath
func (m *Matrix) Select(c uint64, k int) int {
	if c >= m.sigma || k < 1 {
		return -1
	}
	// Single descent tracking both endpoints of c's block (Rank2-style):
	// s is the block start, e its end, so e-s is the number of occurrences
	// of c in the whole sequence and no separate Rank(c, n) pass is needed
	// to validate k.
	s, e := 0, m.n
	for l := uint(0); l < m.width; l++ {
		if (c>>(m.width-1-l))&1 == 1 {
			z := m.zeros[l]
			s = z + m.rank1(l, s)
			e = z + m.rank1(l, e)
		} else {
			s -= m.rank1(l, s)
			e -= m.rank1(l, e)
		}
	}
	if k > e-s {
		return -1
	}
	pos := s + k - 1
	// Ascend. k <= e-s guarantees pos stays inside c's block at every
	// level, so the selects cannot fail on the devirtualized path.
	if m.plains != nil {
		for l := int(m.width) - 1; l >= 0; l-- {
			B := m.plains[l]
			if (c>>(m.width-1-uint(l)))&1 == 1 {
				pos = B.Select1(pos - m.zeros[l] + 1)
			} else {
				pos = B.Select0(pos + 1)
			}
		}
		if ringdebugEnabled {
			m.debugCheckSelect(c, k, pos)
		}
		return pos
	}
	for l := int(m.width) - 1; l >= 0; l-- {
		B := m.levels[l]
		if (c>>(m.width-1-uint(l)))&1 == 1 {
			pos = B.Select1(pos - m.zeros[l] + 1) //ringlint:allow hotpath -- compressed-level fallback ascent
		} else {
			pos = B.Select0(pos + 1) //ringlint:allow hotpath -- compressed-level fallback ascent
		}
		if pos < 0 {
			return -1
		}
	}
	if ringdebugEnabled {
		m.debugCheckSelect(c, k, pos)
	}
	return pos
}

// Count returns the number of occurrences of c in S[lo, hi).
func (m *Matrix) Count(c uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	return m.Rank(c, hi) - m.Rank(c, lo)
}

// RangeNextValue returns the smallest symbol ≥ c occurring in S[lo, hi),
// and whether such a symbol exists. This is the range-successor operation
// used by the ring's backward leap (Section 3.2.2). It runs in O(log σ).
//
//ringlint:hotpath
func (m *Matrix) RangeNextValue(lo, hi int, c uint64) (uint64, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > m.n {
		hi = m.n
	}
	if lo >= hi || c >= m.sigma {
		return 0, false
	}
	v, ok := m.rangeNext(lo, hi, c)
	if ringdebugEnabled && ok {
		m.debugCheckRangeNext(lo, hi, c, v)
	}
	return v, ok
}

// rangeNext finds the smallest value ≥ c among positions [lo, hi).
//
// It descends along c's bit path. At a level where c's bit is 0, the
// 1-child subtree holds values sharing the prefix so far but larger than
// c; because node cardinalities are preserved level to level, a non-empty
// sibling stays non-empty all the way down, and a deeper sibling always
// holds smaller values than a shallower one. So one fallback — the
// deepest non-empty 1-sibling seen — suffices: if the tight path dies,
// resume there with an unconstrained minimum descent (a plain loop).
//
//ringlint:hotpath
func (m *Matrix) rangeNext(lo, hi int, c uint64) (uint64, bool) {
	var fbL uint
	var fbLo, fbHi int
	var fbPrefix uint64
	haveFB := false

	l, prefix := uint(0), uint64(0)
	for lo < hi {
		if l == m.width {
			return prefix, true // c itself occurs in the range
		}
		r1lo, r1hi := m.rank1(l, lo), m.rank1(l, hi)
		if (c>>(m.width-1-l))&1 == 0 {
			if lo1, hi1 := m.zeros[l]+r1lo, m.zeros[l]+r1hi; lo1 < hi1 {
				fbL, fbLo, fbHi, fbPrefix = l+1, lo1, hi1, prefix<<1|1
				haveFB = true
			}
			lo, hi = lo-r1lo, hi-r1hi
			prefix <<= 1
		} else {
			lo, hi = m.zeros[l]+r1lo, m.zeros[l]+r1hi
			prefix = prefix<<1 | 1
		}
		l++
	}
	if !haveFB {
		return 0, false
	}
	// Unconstrained minimum of the fallback subtree: the leftmost child is
	// never empty below a non-empty node, so no further backtracking.
	l, lo, hi, prefix = fbL, fbLo, fbHi, fbPrefix
	for ; l < m.width; l++ {
		r1lo, r1hi := m.rank1(l, lo), m.rank1(l, hi)
		if lo-r1lo < hi-r1hi {
			lo, hi = lo-r1lo, hi-r1hi
			prefix <<= 1
		} else {
			lo, hi = m.zeros[l]+r1lo, m.zeros[l]+r1hi
			prefix = prefix<<1 | 1
		}
	}
	return prefix, true
}

// Values returns the whole sequence S[0, n) in order. It replays the
// build's stable partitions level by level, reading each level's bits once
// in order, so it costs O(n log σ) sequential work instead of n separate
// descents. Each level's zero count is taken from its bits, so a corrupt
// (viewed) matrix decodes to wrong values, never to an out-of-range write.
func (m *Matrix) Values() []uint64 {
	n := m.n
	idx, val := make([]uint32, n), make([]uint64, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	nidx, nval := make([]uint32, n), make([]uint64, n)
	for l := uint(0); l < m.width; l++ {
		nz := 0
		for k := 0; k < n; k++ {
			if !m.get(l, k) {
				nz++
			}
		}
		zi, oi := 0, nz
		for k := 0; k < n; k++ {
			b := 0
			if m.get(l, k) {
				b = 1
			}
			at := zi + (oi-zi)*b
			nidx[at], nval[at] = idx[k], val[k]<<1|uint64(b)
			zi += 1 - b
			oi += b
		}
		idx, nidx = nidx, idx
		val, nval = nval, val
	}
	out := nval[:n] // reuse the spare buffer for the result
	for k, i := range idx {
		out[i] = val[k]
	}
	return out
}

// DistinctInRange calls visit once per distinct symbol occurring in
// S[lo, hi), in increasing symbol order, with the symbol's multiplicity in
// the range. If visit returns false the enumeration stops early.
func (m *Matrix) DistinctInRange(lo, hi int, visit func(c uint64, count int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > m.n {
		hi = m.n
	}
	if lo >= hi {
		return
	}
	m.distinct(lo, hi, visit)
}

// distinct enumerates the distinct symbols of [lo, hi) in increasing
// order with an explicit-stack DFS: at each node the 1-child is parked on
// the stack and the walk continues into the 0-child, so symbols surface
// in sorted order. The stack holds at most one pending sibling per level
// (width ≤ 64) and is recycled through dnodePool (shared with the batched
// descents in batch.go) — a fixed stack array would zero 2KB per call.
//
//ringlint:hotpath
func (m *Matrix) distinct(lo, hi int, visit func(uint64, int) bool) {
	sp := dnodePool.Get().(*[]dnode)
	stack := (*sp)[:0]
	cur := dnode{0, lo, hi, 0}
	for {
		if cur.lo < cur.hi {
			if cur.l < m.width {
				r1lo, r1hi := m.rank1(cur.l, cur.lo), m.rank1(cur.l, cur.hi)
				z := m.zeros[cur.l]
				stack = append(stack, dnode{cur.l + 1, z + r1lo, z + r1hi, cur.prefix<<1 | 1})
				cur = dnode{cur.l + 1, cur.lo - r1lo, cur.hi - r1hi, cur.prefix << 1}
				continue
			}
			if !visit(cur.prefix, cur.hi-cur.lo) {
				break
			}
		}
		if len(stack) == 0 {
			break
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
	*sp = stack[:0]
	dnodePool.Put(sp)
}

// SizeBytes returns the total in-memory footprint of the matrix.
func (m *Matrix) SizeBytes() int {
	total := 8*len(m.zeros) + 48
	for _, lv := range m.levels {
		total += lv.SizeBytes()
	}
	return total
}

// --- serialization ---

const magic = uint64(0x52494e47574d5458) // "RINGWMTX"

const (
	tagPlain = uint64(1)
	tagRRR   = uint64(2)
)

// WriteTo serializes the matrix, including its level bitvectors.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	var total int64
	hdr := []uint64{magic, uint64(m.n), m.sigma, uint64(m.width)}
	if err := writeU64s(w, &total, hdr...); err != nil {
		return total, err
	}
	for l := uint(0); l < m.width; l++ {
		if err := writeU64s(w, &total, uint64(m.zeros[l])); err != nil {
			return total, err
		}
		var tag uint64 = tagPlain
		if _, ok := m.levels[l].(*bitvector.RRR); ok {
			tag = tagRRR
		}
		if err := writeU64s(w, &total, tag); err != nil {
			return total, err
		}
		type writerTo interface {
			WriteTo(io.Writer) (int64, error)
		}
		n, err := m.levels[l].(writerTo).WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// View deserializes a matrix written by WriteTo from an in-memory
// buffer, aliasing each level's word payload when possible. Returns the
// number of bytes consumed.
func View(b []byte) (*Matrix, int, error) {
	return bits.View(b, "wavelet", Decode)
}

// Decode deserializes a matrix at src's offset.
func Decode(src *bits.ByteSource) (*Matrix, error) {
	hdr, err := src.U64s(4)
	if err != nil {
		return nil, err
	}
	if hdr[0] != magic {
		return nil, errors.New("wavelet: bad magic")
	}
	m := &Matrix{n: int(hdr[1]), sigma: hdr[2], width: uint(hdr[3])}
	if m.n < 0 || m.width < 1 || m.width > 64 {
		return nil, fmt.Errorf("wavelet: corrupt header (n=%d width=%d)", m.n, m.width)
	}
	// New derives width from sigma; a corrupt sigma that breaks the
	// relation would mis-split symbols across levels.
	wantWidth := uint(1)
	if m.sigma > 1 {
		wantWidth = lenBits(m.sigma - 1)
	}
	if m.sigma == 0 || wantWidth != m.width {
		return nil, fmt.Errorf("wavelet: sigma %d inconsistent with %d levels", m.sigma, m.width)
	}
	levels := make([]bitvector.Vector, m.width)
	m.zeros = make([]int, m.width)
	for l := uint(0); l < m.width; l++ {
		meta, err := src.U64s(2)
		if err != nil {
			return nil, err
		}
		if meta[0] > uint64(m.n) {
			return nil, fmt.Errorf("wavelet: corrupt zeros count %d for %d positions", meta[0], m.n)
		}
		m.zeros[l] = int(meta[0])
		switch meta[1] {
		case tagPlain:
			v, err := bitvector.DecodePlain(src)
			if err != nil {
				return nil, err
			}
			levels[l] = v
		case tagRRR:
			v, err := bitvector.DecodeRRR(src)
			if err != nil {
				return nil, err
			}
			levels[l] = v
		default:
			return nil, fmt.Errorf("wavelet: unknown level tag %d", meta[1])
		}
		if levels[l].Len() != m.n {
			return nil, errors.New("wavelet: level length mismatch")
		}
		// Access positions stay in [0, n) only when zeros[l] is exactly
		// the level's zero count: i = zeros[l] + rank1(l, i) ≤ n-1 holds
		// because zeros[l] + ones[l] == n.
		if m.zeros[l] != m.n-levels[l].Ones() {
			return nil, errors.New("wavelet: zeros directory inconsistent with level")
		}
	}
	m.setLevels(levels)
	if ringdebugEnabled {
		m.debugCheckLevels()
	}
	return m, nil
}

func writeU64s(w io.Writer, total *int64, vs ...uint64) error {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(v >> (8 * j))
		}
	}
	n, err := w.Write(buf)
	*total += int64(n)
	return err
}
