package ltj

// Batched radix-intersection lane (DESIGN.md §13). When every iterator
// touching a join variable advertises trieiter.RunLeaper — its Leap
// candidates are the distinct symbols of one contiguous wavelet-matrix
// range — the engine replaces the ping-pong leapfrog seek loop with a
// single wavelet.IntersectRanges descent carrying all the ranges at
// once. The emitted values are exactly the values the scalar seek loop
// would accept, in the same increasing order, so the sequential engine's
// solution stream is unchanged down to the byte; only the cost model
// differs (one pruned multi-range walk instead of k root-to-leaf
// descents per candidate).

import (
	"repro/internal/graph"
	"repro/internal/trieiter"
	"repro/internal/wavelet"
)

// batchRuns decides whether depth d takes the batched lane and, if so,
// collects the iterators' candidate ranges into d's buffer (per-depth
// because the ranges stay live for the whole IntersectRanges walk, across
// the recursion into deeper variables). The lane requires ≥2 iterators (a
// lone iterator is the lonely/enumerate case), single-position
// occurrences, RunLeaper support under the current bindings and equal
// matrix widths. Range length is not a condition: the descent beats the
// seek loop down to ranges of one entry (DESIGN.md §13 has the sweep), and
// an empty range ends it at the root.
//
//ringlint:hotpath allow-dispatch -- capability probe and LeapRun on the index-generic iterator
func (e *evaluator) batchRuns(d *depth) ([]wavelet.MatrixRange, bool) {
	if e.opt.DisableBatch || len(d.ivs) < 2 {
		return nil, false
	}
	rs := d.runs[:0]
	for _, iv := range d.ivs {
		if len(iv.positions) != 1 {
			return nil, false
		}
		rl, ok := iv.it.(trieiter.RunLeaper)
		if !ok {
			return nil, false
		}
		r, ok := rl.LeapRun(iv.positions[0])
		if !ok || (len(rs) > 0 && r.M.Width() != rs[0].M.Width()) {
			return nil, false
		}
		rs = append(rs, r)
	}
	return rs, true
}

// searchBatched eliminates variable j with one radix intersection of the
// collected ranges in place of the scalar seek loop; each emitted value
// takes the same descend step a value accepted by the seek loop does.
func (e *evaluator) searchBatched(j int, ivs []iterVar, rs []wavelet.MatrixRange) error {
	e.stats.BatchDescents++
	var rerr error
	prev, havePrev := graph.ID(0), false
	wavelet.IntersectRanges(rs, func(cv uint64) bool {
		if rerr = e.checkDeadline(); rerr != nil {
			return false
		}
		v := graph.ID(cv)
		e.stats.BatchEmits++
		if ringdebugEnabled {
			e.debugCheckBatchEmit(ivs, v, prev, havePrev)
			prev, havePrev = v, true
		}
		rerr = e.descend(j, v)
		return rerr == nil && !e.stopped
	})
	return rerr
}
