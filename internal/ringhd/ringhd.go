// Package ringhd generalises the ring to relations of arity d (Section 6
// of the paper, Theorem 6.1). A d-ary ring indexes the tuples once per
// cyclic attribute order in a small cover of orders; within one order the
// structure is exactly the triple ring's, with d zones instead of three:
// zone j holds the rotations starting at the order's j-th attribute,
// sorted by the rotation, and stores the cyclically preceding attribute's
// values as its BWT column, with a per-zone C array.
//
// Following the implementation the paper sketches at the end of Section 6,
// binding always proceeds by backward extension (the unidirectional-BWT
// strategy): the index materialises the cycles of orders.BackwardCover(d),
// which guarantee that for every bound set B and next attribute a there is
// a cycle where B is a contiguous arc immediately preceded by a. A leap
// then anchors B in that cycle — a chain of at most d backward extensions,
// O(d log U) — and answers with one range-next-value query, matching the
// O(Q*·d²·m·log U) bound of Theorem 6.1.
//
// For d = 3 the cover has two cycles (the Brisaboa-style configuration);
// the bidirectional triple ring in package ring needs only one, which is
// the paper's headline result.
package ringhd

import (
	"fmt"
	"sort"

	"repro/internal/intvec"
	"repro/internal/orders"
	"repro/internal/wavelet"
)

// Value is one attribute value. All attributes share the domain [0, U).
type Value = uint32

// Tuple is a d-ary tuple.
type Tuple []Value

// Index is the d-dimensional ring.
type Index struct {
	d     int
	n     int
	u     uint64 // shared attribute domain size
	rings []*cycleRing
}

// cycleRing is the ring structure for one cyclic attribute order.
type cycleRing struct {
	cycle  []int             // cycle[j] = attribute whose rotations start zone j
	zoneOf []int             // zoneOf[attr] = j with cycle[j] == attr
	cols   []*wavelet.Matrix // per zone: values of attribute cycle[j-1]
	c      []*intvec.Vector  // per zone: C array over attribute cycle[j]
}

// New builds the index over the given tuples. All tuples must have the
// same arity d >= 2 and values below u.
func New(tuples []Tuple, d int, u uint64) *Index {
	for _, t := range tuples {
		if len(t) != d {
			panic(fmt.Sprintf("ringhd: tuple arity %d, want %d", len(t), d))
		}
		for _, v := range t {
			if uint64(v) >= u {
				panic(fmt.Sprintf("ringhd: value %d outside domain [0,%d)", v, u))
			}
		}
	}
	// Deduplicate.
	ts := make([]Tuple, len(tuples))
	copy(ts, tuples)
	sortTuples(ts, identity(d))
	ts = dedup(ts)

	idx := &Index{d: d, n: len(ts), u: u}
	for _, cycle := range orders.BackwardCover(d) {
		idx.rings = append(idx.rings, buildCycleRing(ts, cycle, d, u))
	}
	return idx
}

func identity(d int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortTuples(ts []Tuple, attrOrder []int) {
	sort.Slice(ts, func(i, j int) bool {
		for _, a := range attrOrder {
			if ts[i][a] != ts[j][a] {
				return ts[i][a] < ts[j][a]
			}
		}
		return false
	})
}

func dedup(ts []Tuple) []Tuple {
	if len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if !equalTuple(t, out[len(out)-1]) {
			out = append(out, t)
		}
	}
	return out
}

func equalTuple(a, b Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildCycleRing(ts []Tuple, cycle []int, d int, u uint64) *cycleRing {
	r := &cycleRing{cycle: cycle, zoneOf: make([]int, d)}
	for j, a := range cycle {
		r.zoneOf[a] = j
	}
	sorted := make([]Tuple, len(ts))
	copy(sorted, ts)
	for j := 0; j < d; j++ {
		// Rotation order starting at zone j: cycle[j], cycle[j+1], ...
		rot := make([]int, d)
		for k := 0; k < d; k++ {
			rot[k] = cycle[(j+k)%d]
		}
		sortTuples(sorted, rot)
		// Column: the preceding attribute cycle[j-1].
		prevAttr := cycle[(j-1+d)%d]
		col := make([]uint64, len(sorted))
		counts := make([]uint64, u+1)
		for i, t := range sorted {
			col[i] = uint64(t[prevAttr])
			counts[t[cycle[j]]+1]++
		}
		for i := uint64(1); i <= u; i++ {
			counts[i] += counts[i-1]
		}
		r.cols = append(r.cols, wavelet.New(col, u, wavelet.Options{}))
		r.c = append(r.c, intvec.New(counts))
	}
	return r
}

// Len returns the number of distinct indexed tuples.
func (idx *Index) Len() int { return idx.n }

// Orders returns how many cyclic orders the index materialises.
func (idx *Index) Orders() int { return len(idx.rings) }

// SizeBytes returns the total footprint.
func (idx *Index) SizeBytes() int {
	total := 48
	for _, r := range idx.rings {
		for j := range r.cols {
			total += r.cols[j].SizeBytes() + r.c[j].SizeBytes()
		}
	}
	return total
}

// arcOf checks whether the bound attributes form a contiguous arc of the
// cycle; it returns the start zone and length when they do.
func (r *cycleRing) arcOf(bound map[int]Value) (start, length int, ok bool) {
	d := len(r.cycle)
	k := len(bound)
	if k == 0 {
		return 0, 0, true
	}
	inB := make([]bool, d)
	for a := range bound {
		inB[r.zoneOf[a]] = true
	}
	if k == d {
		return 0, d, true
	}
	// The arc start is the unique bound zone whose predecessor is unbound.
	start = -1
	for j := 0; j < d; j++ {
		if inB[j] && !inB[(j-1+d)%d] {
			if start >= 0 {
				return 0, 0, false // more than one run: not contiguous
			}
			start = j
		}
	}
	if start < 0 {
		return 0, 0, false
	}
	for j := 0; j < k; j++ {
		if !inB[(start+j)%d] {
			return 0, 0, false
		}
	}
	return start, k, true
}

// anchor computes the BWT range of the bound arc in this cycle, ending in
// the zone of the arc's first attribute: a chain of backward extensions
// (at most d LF-style steps).
func (r *cycleRing) anchor(bound map[int]Value, start, length, n int) (lo, hi int) {
	d := len(r.cycle)
	if length == 0 {
		return 0, n
	}
	endZone := (start + length - 1) % d
	v := uint64(bound[r.cycle[endZone]])
	lo = int(r.c[endZone].Get(int(v)))
	hi = int(r.c[endZone].Get(int(v) + 1))
	for z := endZone; z != start; z = (z - 1 + d) % d {
		pz := (z - 1 + d) % d
		pv := uint64(bound[r.cycle[pz]])
		base := int(r.c[pz].Get(int(pv)))
		lo = base + r.cols[z].Rank(pv, lo)
		hi = base + r.cols[z].Rank(pv, hi)
	}
	return lo, hi
}

// Count returns the number of tuples whose attributes match the bound
// values. The bound set must be contiguous in some indexed cycle, which
// the backward cover guarantees.
func (idx *Index) Count(bound map[int]Value) int {
	if len(bound) == 0 {
		return idx.n
	}
	for _, r := range idx.rings {
		if start, length, ok := r.arcOf(bound); ok {
			lo, hi := r.anchor(bound, start, length, idx.n)
			return hi - lo
		}
	}
	panic(fmt.Sprintf("ringhd: bound set %v not contiguous in any indexed cycle", bound))
}

// Leap returns the smallest value >= c that attribute a can take so that
// some tuple matches bound ∪ {a: value}; ok is false if none exists.
// a must be unbound.
func (idx *Index) Leap(bound map[int]Value, a int, c Value) (Value, bool) {
	if uint64(c) >= idx.u {
		return 0, false
	}
	if len(bound) == 0 {
		// Next value of attribute a with a non-empty block, via the C
		// array of a's zone in any ring.
		r := idx.rings[0]
		z := r.zoneOf[a]
		base := r.c[z].Get(int(c))
		j := r.c[z].SearchPrefix(base + 1)
		if j >= r.c[z].Len() {
			return 0, false
		}
		return Value(j - 1), true
	}
	// Find a cycle where bound is an arc immediately preceded by a.
	for _, r := range idx.rings {
		start, length, ok := r.arcOf(bound)
		if !ok || length == 0 {
			continue
		}
		d := len(r.cycle)
		if r.cycle[(start-1+d)%d] != a {
			continue
		}
		lo, hi := r.anchor(bound, start, length, idx.n)
		v, found := r.cols[start].RangeNextValue(lo, hi, uint64(c))
		if !found {
			return 0, false
		}
		return Value(v), true
	}
	panic(fmt.Sprintf("ringhd: no indexed cycle supports leap (bound=%v, attr=%d)", bound, a))
}
