package ring

import (
	"fmt"

	"repro/internal/graph"
)

// PatternState is the ring's implementation of the trie-iterator
// abstraction (Definition 2.1) for one triple pattern. It maintains the
// BWT range of the pattern under the bindings applied so far and supports:
//
//   - Leap(pos, c): the smallest constant ≥ c that can bind position pos
//     so the pattern still has matches (Lemma 3.7), in O(log U) time;
//   - Bind/Unbind: push and pop a binding, updating the range by an
//     LF-step (backward) or a rank pair (forward), per Section 3.2.2;
//   - Enumerate: report the distinct values of the backward-adjacent free
//     position (the lonely-variable optimisation of Section 4.2).
//
// Invariant: the bound positions always form a cyclically contiguous run,
// and the current zone is the one starting at the run's first position.
// For arity 3 any set of ≤3 positions is cyclically contiguous, which is
// exactly why a single ring suffices for graphs.
type PatternState struct {
	r *Ring

	zone     Zone
	lo, hi   int      // current range within zone, half-open
	bound    int      // number of bound positions, 0..3
	firstVal graph.ID // value bound at the run's first position (zone start)

	frames   []frame  // the Bind stack; backed by frameBuf until it outgrows three
	frameBuf [3]frame // one frame per position: the depth every engine bind stack stays within
}

type frame struct {
	zone     Zone
	lo, hi   int
	bound    int
	firstVal graph.ID
}

// NewPatternState creates the iterator for pattern tp, binding its constant
// components immediately (Lemma 3.6). The constants are bound in an order
// that keeps the run contiguous: a lone constant starts its own zone; two
// constants start at the cyclically later one and extend backward; three
// constants extend backward twice.
func (r *Ring) NewPatternState(tp graph.TriplePattern) *PatternState {
	ps := &PatternState{r: r, lo: 0, hi: r.n}
	ps.frames = ps.frameBuf[:0]
	var consts [3]graph.Position
	n := 0
	for pos := graph.PosS; pos <= graph.PosO; pos++ {
		if !tp.Term(pos).IsVar {
			consts[n] = pos
			n++
		}
	}
	switch n {
	case 0:
		// Full zone; the zone is fixed by the first variable bound.
	case 1:
		ps.Bind(consts[0], tp.Term(consts[0]).Value)
	case 2:
		// The two constants are cyclically adjacent (any 2 of 3 positions
		// are); find the run start a such that the run is (a, a.Next()).
		a, b := consts[0], consts[1]
		if a.Next() != b { // then b.Next() == a
			a, b = b, a
		}
		// Bind the later position first, then extend backward to the start.
		ps.Bind(b, tp.Term(b).Value)
		ps.Bind(a, tp.Term(a).Value)
	case 3:
		ps.Bind(graph.PosO, tp.O.Value)
		ps.Bind(graph.PosP, tp.P.Value)
		ps.Bind(graph.PosS, tp.S.Value)
	}
	return ps
}

// Count returns the number of triples matching the pattern under the
// current bindings — the paper's on-the-fly statistic c(t)·n (Section 4.3).
func (ps *PatternState) Count() int {
	if ps.hi < ps.lo {
		return 0
	}
	return ps.hi - ps.lo
}

// Empty reports whether no triples match under the current bindings.
func (ps *PatternState) Empty() bool { return ps.Count() == 0 }

// Bound returns how many positions are currently bound.
func (ps *PatternState) Bound() int { return ps.bound }

// runStart returns the first position of the bound run (only meaningful
// when bound >= 1).
func (ps *PatternState) runStart() graph.Position { return ps.zone.Start() }

// direction classifies how position pos relates to the current run:
// backward (pos cyclically precedes the run start), forward (pos follows
// the run's last position and the run has length 1), or initial (nothing
// bound yet).
type direction int

const (
	dirInitial direction = iota
	dirBackward
	dirForward
)

//ringlint:hotpath
func (ps *PatternState) classify(pos graph.Position) direction {
	if ps.bound == 0 {
		return dirInitial
	}
	start := ps.runStart()
	if pos == start.Prev() {
		return dirBackward
	}
	if ps.bound == 1 && pos == start.Next() {
		return dirForward
	}
	panic(fmt.Sprintf("ring: position %v is not adjacent to the bound run (start %v, len %d)",
		pos, start, ps.bound))
}

// Leap returns the smallest constant c' >= c that can bind position pos so
// that the pattern still has matches, and whether one exists. pos must be
// an unbound position; with arity 3 it is always adjacent to the bound run,
// so leap is supported with no restriction on the order constants were
// bound in — the property that lets one ring replace all six orders.
//
//ringlint:hotpath
func (ps *PatternState) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	v, ok := ps.leap(pos, c)
	if ringdebugEnabled && ok {
		ps.debugCheckLeap(pos, c, v)
	}
	return v, ok
}

// leap dispatches the three cases of Lemma 3.7 by the direction of pos
// relative to the bound run.
//
//ringlint:hotpath
func (ps *PatternState) leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	if ps.Empty() && ps.bound > 0 {
		return 0, false
	}
	switch ps.classify(pos) {
	case dirInitial:
		// All of the zone's first symbols are candidates: binary search the
		// C array for the next non-empty block.
		return ps.r.nextOccupied(ZoneOf(pos), c)
	case dirBackward:
		// Range-next-value on the zone's BWT column (Section 2.3.4).
		v, ok := ps.r.cols[ps.zone].RangeNextValue(ps.lo, ps.hi, uint64(c))
		return graph.ID(v), ok
	default: // dirForward
		return ps.leapForward(pos, c)
	}
}

// leapForward implements the forward case of Lemma 3.7: the run is a single
// bound symbol d = firstVal, and we search the smallest c' >= c that follows
// d in some rotation. In the zone starting at pos, whose column stores the
// symbols preceding pos (i.e. symbols of the run's type), we locate the
// first occurrence of d at or after C[c] with one rank and one select, and
// map it back to its block with a binary search on C.
//
//ringlint:hotpath allow-dispatch -- C-array accesses dispatch on the packed/sparse representation
func (ps *PatternState) leapForward(pos graph.Position, c graph.ID) (graph.ID, bool) {
	nz := ZoneOf(pos)
	if c >= ps.r.alphabetOf(nz) {
		return 0, false
	}
	col := ps.r.cols[nz]
	cArr := ps.r.c[nz]
	d := uint64(ps.firstVal)
	before := col.Rank(d, int(cArr.Get(int(c))))
	q := col.Select(d, before+1)
	if q < 0 {
		return 0, false
	}
	// Find c' with C[c'] <= q < C[c'+1]: the first index with value > q,
	// minus one.
	j := cArr.SearchPrefix(uint64(q) + 1)
	return graph.ID(j - 1), true
}

// Bind fixes position pos to constant c, updating the range. The previous
// state is pushed and can be restored with Unbind. Binding a value for
// which Leap did not vouch is allowed and simply yields an empty range.
//
//ringlint:hotpath allow-dispatch -- C-array accesses dispatch on the packed/sparse representation
func (ps *PatternState) Bind(pos graph.Position, c graph.ID) {
	ps.frames = append(ps.frames, frame{ps.zone, ps.lo, ps.hi, ps.bound, ps.firstVal})
	switch ps.classify(pos) {
	case dirInitial:
		ps.zone = ZoneOf(pos)
		ps.lo, ps.hi = ps.r.CRange(ps.zone, c)
		ps.firstVal = c
		ps.bound = 1
	case dirBackward:
		// LF-step: the run start moves back to pos and the zone changes.
		nz := ZoneOf(pos)
		if c >= ps.r.alphabetOf(nz) {
			ps.lo, ps.hi = 0, 0
		} else {
			col := ps.r.cols[ps.zone]
			base := int(ps.r.c[nz].Get(int(c)))
			rlo, rhi := col.Rank2(uint64(c), ps.lo, ps.hi)
			ps.lo, ps.hi = base+rlo, base+rhi
		}
		ps.zone = nz
		ps.firstVal = c
		ps.bound++
	default: // dirForward
		// Stay in the current zone; narrow to the sub-block whose second
		// symbol is c, counted through the next zone's column.
		nz := ZoneOf(pos)
		if c >= ps.r.alphabetOf(nz) {
			ps.lo, ps.hi = 0, 0
		} else {
			col := ps.r.cols[nz]
			cArr := ps.r.c[nz]
			d := uint64(ps.firstVal)
			base := int(ps.r.c[ps.zone].Get(int(ps.firstVal)))
			k1, k2 := col.Rank2(d, int(cArr.Get(int(c))), int(cArr.Get(int(c)+1)))
			ps.lo, ps.hi = base+k1, base+k2
		}
		ps.bound++
	}
	if ringdebugEnabled {
		ps.debugCheckRange()
	}
}

// Unbind undoes the most recent Bind.
//
//ringlint:hotpath
func (ps *PatternState) Unbind() {
	if len(ps.frames) == 0 {
		panic("ring: Unbind with no bindings")
	}
	f := ps.frames[len(ps.frames)-1]
	ps.frames = ps.frames[:len(ps.frames)-1]
	ps.zone, ps.lo, ps.hi, ps.bound, ps.firstVal = f.zone, f.lo, f.hi, f.bound, f.firstVal
}

// CanEnumerate reports whether Enumerate(pos) is supported: the ring
// enumerates the distinct values of the position cyclically preceding the
// bound run (the lonely-variable case of Section 4.2).
func (ps *PatternState) CanEnumerate(pos graph.Position) bool {
	return ps.bound >= 1 && pos == ps.runStart().Prev()
}

// Enumerate reports, in increasing order, the distinct values that can bind
// the backward-adjacent position, in O(k log(σ/k)) total time for k values.
// It stops early if visit returns false.
func (ps *PatternState) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	if !ps.CanEnumerate(pos) {
		panic(fmt.Sprintf("ring: cannot enumerate position %v (run start %v, bound %d)",
			pos, ps.zone.Start(), ps.bound))
	}
	ps.r.cols[ps.zone].DistinctInRange(ps.lo, ps.hi, func(c uint64, _ int) bool {
		return visit(graph.ID(c))
	})
}
