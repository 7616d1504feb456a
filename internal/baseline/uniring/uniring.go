// Package uniring is the cyclic *unidirectional* configuration the paper
// contrasts the ring against (Section 2.3.2 and the end of Section 6): a
// BWT-based index that can only extend bindings backwards, in the style
// of Brisaboa et al.'s CSA index. Without bidirectionality one cyclic
// order cannot cover all elimination orders, so TWO orders are
// materialised (ctw(3) = 2, Table 3) — the ring's whole point is that
// bidirectionality brings this down to one.
//
// The implementation reuses the d-ary backward-only ring of package
// ringhd instantiated at d = 3, adapted to the trie-iterator interface so
// the same LTJ engine drives it. It serves as the "2 orders, backward
// only" ablation in the benchmarks: roughly twice the ring's space, with
// comparable query mechanics.
package uniring

import (
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ringhd"
)

// Index wraps a 3-ary backward-only ring over the graph's triples.
type Index struct {
	hd *ringhd.Index
	n  int
}

// New builds the two cyclic orders over g. Subjects/objects and
// predicates are folded into one attribute domain (the larger of the
// two), which the d-ary ring requires; the per-position C arrays simply
// have some unused tail entries.
func New(g *graph.Graph) *Index {
	u := uint64(g.NumSO())
	if p := uint64(g.NumP()); p > u {
		u = p
	}
	if u == 0 {
		u = 1
	}
	tuples := make([]ringhd.Tuple, g.Len())
	for i, t := range g.Triples() {
		tuples[i] = ringhd.Tuple{t.S, t.P, t.O}
	}
	return &Index{hd: ringhd.New(tuples, 3, u), n: g.Len()}
}

// SizeBytes returns the index footprint (two cyclic orders).
func (idx *Index) SizeBytes() int { return idx.hd.SizeBytes() }

// Len returns the number of indexed triples.
func (idx *Index) Len() int { return idx.n }

// Orders returns the number of cyclic orders materialised (2 for d=3).
func (idx *Index) Orders() int { return idx.hd.Orders() }

// NewPatternIter creates the trie-iterator for tp.
func (idx *Index) NewPatternIter(tp graph.TriplePattern) ltj.PatternIter {
	it := &patternIter{idx: idx, bound: map[int]ringhd.Value{}}
	for _, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
		if t := tp.Term(pos); !t.IsVar {
			it.Bind(pos, t.Value)
		}
	}
	return it
}

// patternIter tracks the bound attribute values; every observable is
// recomputed by anchoring the bound set in whichever cyclic order covers
// it (O(d log U) per operation, the unidirectional regime's price).
type patternIter struct {
	idx   *Index
	bound map[int]ringhd.Value
	order []int // bind order, for Unbind
}

func attrOf(pos graph.Position) int { return int(pos) }

func (it *patternIter) Count() int {
	return it.idx.hd.Count(it.bound)
}

func (it *patternIter) Empty() bool { return it.Count() == 0 }

func (it *patternIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	v, ok := it.idx.hd.Leap(it.bound, attrOf(pos), ringhd.Value(c))
	return graph.ID(v), ok
}

func (it *patternIter) Bind(pos graph.Position, c graph.ID) {
	a := attrOf(pos)
	it.bound[a] = ringhd.Value(c)
	it.order = append(it.order, a)
}

func (it *patternIter) Unbind() {
	if len(it.order) == 0 {
		panic("uniring: Unbind with no bindings")
	}
	a := it.order[len(it.order)-1]
	it.order = it.order[:len(it.order)-1]
	delete(it.bound, a)
}

// CanEnumerate is always false: the unidirectional index has no
// lonely-variable fast path here; LTJ falls back to seek loops.
func (it *patternIter) CanEnumerate(graph.Position) bool { return false }

func (it *patternIter) Enumerate(graph.Position, func(graph.ID) bool) {
	panic("uniring: Enumerate not supported")
}
