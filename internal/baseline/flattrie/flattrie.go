// Package flattrie is the repository's EmptyHeaded analogue: a
// worst-case-optimal index that materialises the triples in all 3! = 6
// attribute orders ("Flat" in the paper's Figure 2) as flat sorted arrays
// whose levels are navigated by binary search — the classic trie-based
// storage wco joins assume. It exposes the same trie-iterator interface as
// the ring, so the identical LTJ engine runs over it; the comparison then
// isolates the indexing scheme, which is the paper's point: the flat
// scheme needs ~6x the data (plus directory overheads) where the ring
// needs one order in |G|+o(|G|) bits.
package flattrie

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ltj"
)

// perms enumerates the six level orders.
var perms = [6][3]graph.Position{
	{graph.PosS, graph.PosP, graph.PosO},
	{graph.PosS, graph.PosO, graph.PosP},
	{graph.PosP, graph.PosS, graph.PosO},
	{graph.PosP, graph.PosO, graph.PosS},
	{graph.PosO, graph.PosS, graph.PosP},
	{graph.PosO, graph.PosP, graph.PosS},
}

// permIndex returns the index in perms of the order whose first k levels
// are exactly the positions of prefix (in order) — completing arbitrary
// levels afterwards.
func permIndex(prefix []graph.Position) int {
	for i, p := range perms {
		ok := true
		for j, pos := range prefix {
			if p[j] != pos {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	panic(fmt.Sprintf("flattrie: no order with prefix %v", prefix))
}

// Index stores the six sorted copies.
type Index struct {
	orders [6][]graph.Triple
	n      int
}

// New builds the six flat tries of g.
func New(g *graph.Graph) *Index {
	idx := &Index{n: g.Len()}
	for i, p := range perms {
		ts := make([]graph.Triple, g.Len())
		copy(ts, g.Triples())
		p := p
		sort.Slice(ts, func(a, b int) bool {
			x, y := ts[a], ts[b]
			for _, pos := range p {
				xv, yv := coord(x, pos), coord(y, pos)
				if xv != yv {
					return xv < yv
				}
			}
			return false
		})
		idx.orders[i] = ts
	}
	return idx
}

func coord(t graph.Triple, pos graph.Position) graph.ID {
	switch pos {
	case graph.PosS:
		return t.S
	case graph.PosP:
		return t.P
	default:
		return t.O
	}
}

// SizeBytes returns the memory footprint: six triple arrays.
func (idx *Index) SizeBytes() int {
	return 6*12*idx.n + 6*24
}

// Len returns the number of indexed triples.
func (idx *Index) Len() int { return idx.n }

// NewPatternIter creates the trie-iterator for tp (constants bound at
// creation).
func (idx *Index) NewPatternIter(tp graph.TriplePattern) ltj.PatternIter {
	it := &patternIter{idx: idx}
	for _, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
		if t := tp.Term(pos); !t.IsVar {
			it.Bind(pos, t.Value)
		}
	}
	return it
}

// patternIter navigates the flat tries. The bound positions, in binding
// order, select the trie whose levels start with exactly that sequence;
// the matching triples then form a contiguous range of that trie found by
// binary search.
type patternIter struct {
	idx    *Index
	prefix []graph.Position // bound positions in binding order
	vals   []graph.ID       // their values
	frames []fframe
	lo, hi int // current range; valid when len(prefix) > 0
}

type fframe struct {
	lo, hi int
}

// order returns the trie matching the current prefix plus an optional next
// position.
func (it *patternIter) order(next ...graph.Position) []graph.Triple {
	return it.idx.orders[permIndex(append(append([]graph.Position{}, it.prefix...), next...))]
}

// searchRange finds, within arr[lo,hi) sorted by pos at the current level,
// the subrange whose level-k coordinate equals c.
func searchLevel(arr []graph.Triple, lo, hi int, pos graph.Position, c graph.ID) (int, int) {
	first := lo + sort.Search(hi-lo, func(i int) bool { return coord(arr[lo+i], pos) >= c })
	last := lo + sort.Search(hi-lo, func(i int) bool { return coord(arr[lo+i], pos) > c })
	return first, last
}

func (it *patternIter) Count() int {
	if len(it.prefix) == 0 {
		return it.idx.n
	}
	return it.hi - it.lo
}

func (it *patternIter) Empty() bool { return it.Count() == 0 }

func (it *patternIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	arr := it.order(pos)
	lo, hi := it.lo, it.hi
	if len(it.prefix) == 0 {
		lo, hi = 0, len(arr)
	}
	if lo >= hi {
		return 0, false
	}
	// Values at the next level are sorted within the range: binary search c.
	i := lo + sort.Search(hi-lo, func(i int) bool { return coord(arr[lo+i], pos) >= c })
	if i >= hi {
		return 0, false
	}
	return coord(arr[i], pos), true
}

func (it *patternIter) Bind(pos graph.Position, c graph.ID) {
	it.frames = append(it.frames, fframe{it.lo, it.hi})
	arr := it.order(pos)
	lo, hi := it.lo, it.hi
	if len(it.prefix) == 0 {
		lo, hi = 0, len(arr)
	}
	it.lo, it.hi = searchLevel(arr, lo, hi, pos, c)
	it.prefix = append(it.prefix, pos)
	it.vals = append(it.vals, c)
}

func (it *patternIter) Unbind() {
	if len(it.prefix) == 0 {
		panic("flattrie: Unbind with no bindings")
	}
	f := it.frames[len(it.frames)-1]
	it.frames = it.frames[:len(it.frames)-1]
	it.lo, it.hi = f.lo, f.hi
	it.prefix = it.prefix[:len(it.prefix)-1]
	it.vals = it.vals[:len(it.vals)-1]
}

// CanEnumerate: a flat trie can enumerate any unbound position (there is
// always an order listing it right after the bound prefix).
func (it *patternIter) CanEnumerate(pos graph.Position) bool {
	for _, p := range it.prefix {
		if p == pos {
			return false
		}
	}
	return true
}

func (it *patternIter) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	arr := it.order(pos)
	lo, hi := it.lo, it.hi
	if len(it.prefix) == 0 {
		lo, hi = 0, len(arr)
	}
	for lo < hi {
		c := coord(arr[lo], pos)
		if !visit(c) {
			return
		}
		// Skip to the first triple with a larger coordinate.
		lo += sort.Search(hi-lo, func(i int) bool { return coord(arr[lo+i], pos) > c })
	}
}
