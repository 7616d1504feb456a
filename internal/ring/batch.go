package ring

// Batched leaping (DESIGN.md §13): the ring's side of the engine's
// radix-intersection lane. A backward leap reads the range successor of
// one contiguous BWT-column range, so (a) a *run* of leaps over the same
// bindings can share one pruned wavelet descent (BatchLeap), and (b) the
// candidate sets of several patterns joining on one variable can be
// intersected wholesale by carrying all their column ranges (LeapRun)
// down the radix levels together in one wavelet.IntersectRanges walk —
// the engine's batched lane — instead of leapfrogging pattern-by-pattern.

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/trieiter"
	"repro/internal/wavelet"
)

var _ trieiter.RunLeaper = (*PatternState)(nil)

// LeapRun implements trieiter.RunLeaper: when the next Leap(pos, ·)
// would be a backward range-successor descent, the candidate values for
// pos are exactly the distinct symbols of the current [lo, hi) range of
// the zone's BWT column. The initial (nothing bound) and forward
// directions have no contiguous-range form, so ok is false there and
// callers fall back to scalar Leap.
func (ps *PatternState) LeapRun(pos graph.Position) (wavelet.MatrixRange, bool) {
	if ps.bound == 0 || ps.bound == 3 || pos != ps.runStart().Prev() {
		return wavelet.MatrixRange{}, false
	}
	return wavelet.MatrixRange{M: ps.r.cols[ps.zone], Lo: ps.lo, Hi: ps.hi}, true
}

// batchBufPool recycles the uint64 staging buffer BatchLeap hands to
// wavelet.NextValues before narrowing the values to graph.IDs.
var batchBufPool = sync.Pool{
	New: func() any { s := make([]uint64, 0, 64); return &s },
}

// BatchLeap appends to buf the next candidates ≥ c for position pos, in
// increasing order, until buf reaches its capacity or the candidates are
// exhausted, and returns the extended slice. In the backward direction
// this costs a single pruned wavelet descent for the whole run; in the
// other directions it degrades to repeated scalar Leap calls, so callers
// may use it unconditionally.
func (ps *PatternState) BatchLeap(pos graph.Position, c graph.ID, buf []graph.ID) []graph.ID {
	if len(buf) >= cap(buf) {
		return buf
	}
	if r, ok := ps.LeapRun(pos); ok {
		want := cap(buf) - len(buf)
		sp := batchBufPool.Get().(*[]uint64)
		full := *sp
		if cap(full) < want {
			full = make([]uint64, 0, want)
		}
		// NextValues fills to capacity, so hand it a cap-limited view of
		// the pooled buffer; the full buffer goes back to the pool.
		tmp := full[:0:want]
		tmp = r.M.NextValues(r.Lo, r.Hi, uint64(c), tmp)
		n0 := len(buf)
		for _, v := range tmp {
			buf = append(buf, graph.ID(v))
		}
		*sp = full[:0]
		batchBufPool.Put(sp)
		if ringdebugEnabled {
			ps.debugCheckBatchLeap(pos, c, buf[n0:])
		}
		return buf
	}
	for len(buf) < cap(buf) {
		v, ok := ps.Leap(pos, c)
		if !ok {
			break
		}
		buf = append(buf, v)
		if v == graph.MaxID {
			break
		}
		c = v + 1
	}
	return buf
}
