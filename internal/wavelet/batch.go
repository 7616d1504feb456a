package wavelet

// Batched descents (DESIGN.md §13). A wavelet matrix is a radix tree over
// the alphabet: the level-l node for a bit-prefix p is a contiguous slice
// of level l, and any position range [lo, hi) of the root maps to one
// sub-range per node on the way down. That makes two batched operations
// natural:
//
//   - NextValues: one pruned DFS that reports a *run* of range successors,
//     where the scalar RangeNextValue would pay a root-to-leaf descent per
//     value;
//   - IntersectRanges: carry several ranges (one per triple pattern
//     touching a join variable) down the levels together and abandon a
//     subtree the moment any range runs empty in it — the radix-triejoin
//     intersection of the ranges' distinct-value sets, computed without
//     ever materializing them.
//
// Both share the pooled frame machinery with distinct, so the engine's
// per-variable calls do not allocate.

import (
	"fmt"
	"sync"
)

// MatrixRange names a half-open position range [Lo, Hi) of one matrix.
// IntersectRanges accepts ranges over *different* matrices as long as
// they share the same level width — how the ring intersects, say, subject
// candidates across its SPO and POS columns, which code the same
// alphabet.
type MatrixRange struct {
	M      *Matrix
	Lo, Hi int
}

// Width returns the number of levels (bits used to code σ-1). Two
// matrices are intersectable by IntersectRanges iff their widths agree.
func (m *Matrix) Width() uint { return m.width }

// dnode is one parked DFS sibling: the 1-child of a node whose 0-child
// the walk descended into. Symbols surface in sorted order because the
// 0-child is always explored first.
type dnode struct {
	l      uint
	lo, hi int
	prefix uint64
}

// dnodePool recycles the single-range DFS stack shared by distinct and
// nextValues. The stack holds at most one parked sibling per level
// (width ≤ 64); pooling it avoids both an allocation and the 2KB of
// zeroing a fixed [64]dnode array would cost on every call.
var dnodePool = sync.Pool{
	New: func() any { s := make([]dnode, 0, 64); return &s },
}

// NextValues appends to buf the distinct symbols ≥ c occurring in
// S[lo, hi), in increasing order, until buf reaches its capacity or the
// range is exhausted, and returns the extended slice. One call costs a
// single DFS that prunes every subtree whose maximum value is below c —
// the batched replacement for cap(buf)-len(buf) independent
// RangeNextValue descents when the caller (the ring's BatchLeap) knows
// it wants a run of successors. buf needs spare capacity
// (len(buf) < cap(buf)) for anything to be appended.
func (m *Matrix) NextValues(lo, hi int, c uint64, buf []uint64) []uint64 {
	if lo < 0 {
		lo = 0
	}
	if hi > m.n {
		hi = m.n
	}
	if lo >= hi || c >= m.sigma || len(buf) == cap(buf) {
		return buf
	}
	n0 := len(buf)
	buf = m.nextValues(lo, hi, c, buf)
	if ringdebugEnabled {
		m.debugCheckNextValues(lo, hi, c, buf[n0:])
	}
	return buf
}

// nextValues is the hot DFS behind NextValues: distinct-symbol
// enumeration with a lower bound, pruning any subtree whose value
// interval lies entirely below c. A node whose range is one position
// finishes with valueAt and keeps the value if it is ≥ c.
//
//ringlint:hotpath
func (m *Matrix) nextValues(lo, hi int, c uint64, buf []uint64) []uint64 {
	sp := dnodePool.Get().(*[]dnode)
	stack := (*sp)[:0]
	cur := dnode{0, lo, hi, 0}
	for {
		if size := cur.hi - cur.lo; size > 0 && m.subtreeMax(cur.l, cur.prefix) >= c {
			v := cur.prefix
			if size == 1 {
				// One position: its value is the node's only candidate.
				v = m.valueAt(cur.l, cur.lo, cur.prefix)
			} else if cur.l < m.width {
				var r1lo, r1hi int
				if m.plain != nil {
					r1lo, r1hi = m.plain[cur.l].Rank1Pair(cur.lo, cur.hi)
				} else {
					r1lo, r1hi = m.levelRank1Pair(cur.l, cur.lo, cur.hi)
				}
				z := m.zeros[cur.l]
				stack = append(stack, dnode{cur.l + 1, z + r1lo, z + r1hi, cur.prefix<<1 | 1})
				cur = dnode{cur.l + 1, cur.lo - r1lo, cur.hi - r1hi, cur.prefix << 1}
				continue
			}
			if v >= c {
				buf = append(buf, v)
				if len(buf) == cap(buf) {
					break
				}
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
	return buf
}

// subtreeMax returns the largest value codable below the level-l node
// with bit-prefix p: the prefix followed by all-one bits.
//
//ringlint:hotpath
func (m *Matrix) subtreeMax(l uint, prefix uint64) uint64 {
	s := m.width - l
	if s >= 64 {
		return ^uint64(0)
	}
	return prefix<<s | (1<<s - 1)
}

// isFrame parks the 1-children of a k-range node whose two child sets
// both survive in every range; the k child ranges live in a flat bounds
// arena so pushing and popping are plain copies.
type isFrame struct {
	l      uint
	prefix uint64
	off    int // parked child ranges at bounds[off : off+2k]
}

// isScratch holds the per-call buffers of intersectRanges. ensureScratch
// sizes every capacity to the worst case (one parked sibling per level),
// so the self-appends in the hot loop never grow a slice.
type isScratch struct {
	frames []isFrame
	bounds []int // flat [lo,hi) pairs, 2k ints per parked frame
	cur    []int // ranges of the node being expanded
	zb, ob []int // 0-/1-child ranges under construction
}

var isPool = sync.Pool{New: func() any { return new(isScratch) }}

func ensureScratch(k int, w uint) *isScratch {
	sc := isPool.Get().(*isScratch)
	if cap(sc.cur) < 2*k {
		sc.cur = make([]int, 2*k)
		sc.zb = make([]int, 2*k)
		sc.ob = make([]int, 2*k)
	}
	if cap(sc.frames) < int(w) {
		sc.frames = make([]isFrame, 0, w)
	}
	if cap(sc.bounds) < 2*k*int(w) {
		sc.bounds = make([]int, 0, 2*k*int(w))
	}
	return sc
}

// IntersectRanges emits, in increasing order, every symbol that occurs
// in ALL of the given ranges — the intersection of their distinct-value
// sets — with one level-synchronous descent that carries the k ranges
// together. A radix subtree is abandoned the moment any range runs empty
// in it, so for output size r the walk touches O(r log(σ/r)) tree nodes
// at k ranks each, against k full descents *per candidate* for the
// leapfrog equivalent.
//
// All ranges must lie over matrices of the same level width (they may be
// different matrices); IntersectRanges panics otherwise, since width is
// a static property of the indexes being joined and a mismatch is a
// caller bug, not a data condition. Ranges are clamped to their matrix
// bounds. Enumeration stops early when emit returns false. With k == 1
// this degrades to distinct-value enumeration without multiplicities.
func IntersectRanges(rs []MatrixRange, emit func(v uint64) bool) {
	if len(rs) == 0 {
		return
	}
	w := rs[0].M.width
	for i := range rs {
		if got := rs[i].M.width; got != w {
			panic(fmt.Sprintf("wavelet: IntersectRanges width mismatch: %d vs %d levels", got, w))
		}
	}
	if ringdebugEnabled {
		emit = debugWrapIntersect(rs, emit)
	}
	sc := ensureScratch(len(rs), w)
	intersectRanges(rs, w, sc, emit)
	isPool.Put(sc)
}

// IntersectRanges emits the symbols common to several ranges of this
// matrix; see the package-level IntersectRanges for the contract.
func (m *Matrix) IntersectRanges(ranges [][2]int, emit func(v uint64) bool) {
	rs := make([]MatrixRange, len(ranges))
	for i, r := range ranges {
		rs[i] = MatrixRange{M: m, Lo: r[0], Hi: r[1]}
	}
	IntersectRanges(rs, emit)
}

// intersectRanges is the hot DFS behind IntersectRanges. Per node it
// computes the k pairs of child ranges into zb/ob with one pair step per
// range, then either descends (swapping the buffers — no copying) into
// the surviving child, parking the 1-child when both survive, or pops
// the deepest parked sibling. A node where some range holds one position
// finishes with intersectTail instead.
//
//ringlint:hotpath
func intersectRanges(rs []MatrixRange, w uint, sc *isScratch, emit func(v uint64) bool) {
	k := len(rs)
	cur := sc.cur[:2*k]
	zb := sc.zb[:2*k]
	ob := sc.ob[:2*k]
	for i := 0; i < k; i++ {
		lo, hi := rs[i].Lo, rs[i].Hi
		if lo < 0 {
			lo = 0
		}
		if n := rs[i].M.n; hi > n {
			hi = n
		}
		if lo >= hi {
			return
		}
		cur[2*i], cur[2*i+1] = lo, hi
	}
	frames := sc.frames[:0]
	bounds := sc.bounds[:0]
	l, prefix := uint(0), uint64(0)
	for {
		one := -1
		for i := 0; i < k; i++ {
			if cur[2*i+1]-cur[2*i] == 1 {
				one = i
				break
			}
		}
		if one >= 0 {
			if v, ok := intersectTail(rs, cur, one, l, w, prefix); ok && !emit(v) {
				break
			}
		} else if l < w {
			zeroOK, oneOK := true, true
			for i := 0; i < k; i++ {
				m := rs[i].M
				lo, hi := cur[2*i], cur[2*i+1]
				var r1lo, r1hi int
				if m.plain != nil {
					r1lo, r1hi = m.plain[l].Rank1Pair(lo, hi)
				} else {
					r1lo, r1hi = m.levelRank1Pair(l, lo, hi)
				}
				z := m.zeros[l]
				if lo-r1lo >= hi-r1hi {
					zeroOK = false
				}
				if r1lo >= r1hi {
					oneOK = false
				}
				zb[2*i], zb[2*i+1] = lo-r1lo, hi-r1hi
				ob[2*i], ob[2*i+1] = z+r1lo, z+r1hi
			}
			if zeroOK {
				if oneOK {
					frames = append(frames, isFrame{l + 1, prefix<<1 | 1, len(bounds)})
					bounds = append(bounds, ob...)
				}
				cur, zb = zb, cur
				l, prefix = l+1, prefix<<1
				continue
			}
			if oneOK {
				cur, ob = ob, cur
				l, prefix = l+1, prefix<<1|1
				continue
			}
		} else if !emit(prefix) {
			break
		}
		if len(frames) == 0 {
			break
		}
		f := frames[len(frames)-1]
		frames = frames[:len(frames)-1]
		l, prefix = f.l, f.prefix
		copy(cur, bounds[f.off:f.off+2*k])
		bounds = bounds[:f.off]
	}
	// Hand the (swapped-around) buffers back so the pool keeps them warm.
	sc.cur, sc.zb, sc.ob = cur, zb, ob
	sc.frames, sc.bounds = frames[:0], bounds[:0]
}

// intersectTail finishes a node of intersectRanges at level l where
// range one holds a single position. That position's value is the only
// one the node can emit, and its path is fixed: each level takes one
// rank and one bit for it, and the other ranges take one pair step and
// follow that bit without branching on it. It returns the value and
// whether every range still holds it, stopping at the first range that
// runs empty. It overwrites cur.
//
//ringlint:hotpath
func intersectTail(rs []MatrixRange, cur []int, one int, l, w uint, prefix uint64) (uint64, bool) {
	m1 := rs[one].M
	p := cur[2*one]
	for ; l < w; l++ {
		var r int
		var b uint
		if m1.plain != nil {
			r, b = m1.plain[l].Rank1Bit(p)
		} else {
			r, b = m1.levelRank1Bit(l, p)
		}
		mask := -int(b)
		for i := range rs {
			if i == one {
				continue
			}
			m := rs[i].M
			lo, hi := cur[2*i], cur[2*i+1]
			var r1lo, r1hi int
			if m.plain != nil {
				r1lo, r1hi = m.plain[l].Rank1Pair(lo, hi)
			} else {
				r1lo, r1hi = m.levelRank1Pair(l, lo, hi)
			}
			// mask == -1: zeros[l] + rank; mask == 0: position - rank.
			z := m.zeros[l]
			lo += (z+2*r1lo-lo)&mask - r1lo
			hi += (z+2*r1hi-hi)&mask - r1hi
			if lo >= hi {
				return 0, false
			}
			cur[2*i], cur[2*i+1] = lo, hi
		}
		p += (m1.zeros[l]+2*r-p)&mask - r
		prefix = prefix<<1 | uint64(b)
	}
	return prefix, true
}
