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
	"cmp"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/ltj"
)

// The six level orders are numbered SPO, SOP, PSO, POS, OSP, OPS: order
// 2*a is the first to start with position a, and byPrefix[a][b] is the
// order whose levels start with a then b (the diagonal, a prefix no
// pattern can bind, repeats order 2*a).
var byPrefix = [3][3]int{
	graph.PosS: {0, 0, 1},
	graph.PosP: {2, 2, 3},
	graph.PosO: {4, 5, 4},
}

// cmps compares two triples lexicographically in each of the six orders.
var cmps = [6]func(a, b graph.Triple) int{
	func(a, b graph.Triple) int { return cmp3(a.S, a.P, a.O, b.S, b.P, b.O) },
	func(a, b graph.Triple) int { return cmp3(a.S, a.O, a.P, b.S, b.O, b.P) },
	func(a, b graph.Triple) int { return cmp3(a.P, a.S, a.O, b.P, b.S, b.O) },
	func(a, b graph.Triple) int { return cmp3(a.P, a.O, a.S, b.P, b.O, b.S) },
	func(a, b graph.Triple) int { return cmp3(a.O, a.S, a.P, b.O, b.S, b.P) },
	func(a, b graph.Triple) int { return cmp3(a.O, a.P, a.S, b.O, b.P, b.S) },
}

func cmp3(a0, a1, a2, b0, b1, b2 graph.ID) int {
	if c := cmp.Compare(a0, b0); c != 0 {
		return c
	}
	if c := cmp.Compare(a1, b1); c != 0 {
		return c
	}
	return cmp.Compare(a2, b2)
}

// Index stores the six sorted copies. It is immutable: Merge and Without
// return new indexes and leave their receiver untouched, so a published
// index can be read by any number of goroutines while a writer derives
// the next one from it.
type Index struct {
	orders [6][]graph.Triple
}

// New builds the six flat tries of g.
func New(g *graph.Graph) *Index {
	return fromSPO(slices.Clone(g.Triples()))
}

// FromTriples builds the six flat tries of a set of triples given in any
// order; duplicates are dropped. It costs a few linear passes per order on
// large inputs (see graph.SortBy).
func FromTriples(ts []graph.Triple) *Index {
	return fromSPO(graph.SortedSPO(ts))
}

// fromSPO derives the other five orders from the duplicate-free SPO order.
// A stable sort on one coordinate x of an array sorted by (y, z) leaves it
// sorted by (x, y, z), so each order costs one single-coordinate pass
// (graph.SortBy) over a copy of an order already built.
func fromSPO(spo []graph.Triple) *Index {
	idx := &Index{}
	idx.orders[0] = spo
	spare := make([]graph.Triple, len(spo))
	derive := func(src []graph.Triple, pos graph.Position) []graph.Triple {
		var sorted []graph.Triple
		sorted, spare = graph.SortBy(slices.Clone(src), spare, pos)
		return sorted
	}
	idx.orders[4] = derive(spo, graph.PosO)           // OSP
	idx.orders[3] = derive(idx.orders[4], graph.PosP) // POS
	idx.orders[2] = derive(spo, graph.PosP)           // PSO
	idx.orders[5] = derive(idx.orders[2], graph.PosO) // OPS
	idx.orders[1] = derive(idx.orders[5], graph.PosS) // SOP
	return idx
}

// SizeBytes returns the memory footprint: six triple arrays.
func (idx *Index) SizeBytes() int {
	return 6*12*idx.Len() + 6*24
}

// Len returns the number of indexed triples.
func (idx *Index) Len() int { return len(idx.orders[0]) }

// Triples returns the indexed triples in (s,p,o) order. The slice is
// shared read-only.
func (idx *Index) Triples() []graph.Triple { return idx.orders[0] }

// Contains reports whether t is indexed, by binary search.
func (idx *Index) Contains(t graph.Triple) bool {
	_, ok := slices.BinarySearchFunc(idx.orders[0], t, cmps[0])
	return ok
}

// Equal reports whether both indexes hold the same six arrays.
func (idx *Index) Equal(o *Index) bool {
	for i := range idx.orders {
		if !slices.Equal(idx.orders[i], o.orders[i]) {
			return false
		}
	}
	return true
}

// Merge returns the index over the union of both triple sets. Each order
// is merged by binary-searching the smaller side's triples in the larger
// side and copying the runs between them, so the cost is one copy of the
// result plus O(small · log large) comparisons.
func (idx *Index) Merge(o *Index) *Index {
	if o.Len() == 0 {
		return idx
	}
	if idx.Len() == 0 {
		return o
	}
	out := &Index{}
	for i := range out.orders {
		big, small := idx.orders[i], o.orders[i]
		if len(big) < len(small) {
			big, small = small, big
		}
		merged := make([]graph.Triple, 0, len(big)+len(small))
		for _, t := range small {
			j, found := slices.BinarySearchFunc(big, t, cmps[i])
			merged = append(merged, big[:j]...)
			big = big[j:]
			if !found {
				merged = append(merged, t)
			}
		}
		out.orders[i] = append(merged, big...)
	}
	return out
}

// Without returns the index with the given triples removed (those it does
// not hold are ignored). Each order costs one copy plus a binary search
// per removed triple.
func (idx *Index) Without(drop []graph.Triple) *Index {
	out := &Index{}
	at := make([]int, 0, len(drop))
	for i, arr := range idx.orders {
		at = at[:0]
		for _, t := range drop {
			if j, ok := slices.BinarySearchFunc(arr, t, cmps[i]); ok {
				at = append(at, j)
			}
		}
		if len(at) == 0 {
			return idx // every order holds the same triples: none to drop
		}
		slices.Sort(at)
		at = slices.Compact(at)
		kept := make([]graph.Triple, 0, len(arr)-len(at))
		prev := 0
		for _, j := range at {
			kept = append(kept, arr[prev:j]...)
			prev = j + 1
		}
		out.orders[i] = append(kept, arr[prev:]...)
	}
	return out
}

// NewPatternIter creates the trie-iterator for tp (constants bound at
// creation).
func (idx *Index) NewPatternIter(tp graph.TriplePattern) ltj.PatternIter {
	it := &patternIter{idx: idx, hi: idx.Len()}
	for pos := graph.PosS; pos <= graph.PosO; pos++ {
		if t := tp.Term(pos); !t.IsVar {
			it.Bind(pos, t.Value)
		}
	}
	return it
}

// patternIter navigates the flat tries. The bound positions, in binding
// order, select the trie whose levels start with exactly that sequence;
// the matching triples then form a contiguous range [lo, hi) of that trie
// found by binary search (the whole trie while nothing is bound).
type patternIter struct {
	idx    *Index
	prefix [3]graph.Position // bound positions in binding order
	bound  int               // number of them
	frames [3]fframe
	lo, hi int
}

type fframe struct {
	lo, hi int
}

// order returns the trie whose levels start with the bound prefix followed
// by next. Only the first two levels pick the order: after them the third
// is whatever position is left.
func (it *patternIter) order(next graph.Position) []graph.Triple {
	switch it.bound {
	case 0:
		return it.idx.orders[2*int(next)]
	case 1:
		return it.idx.orders[byPrefix[it.prefix[0]][next]]
	default:
		return it.idx.orders[byPrefix[it.prefix[0]][it.prefix[1]]]
	}
}

// searchLevel finds, within arr[lo,hi) sorted by pos at the current level,
// the subrange whose coordinate at pos equals c.
func searchLevel(arr []graph.Triple, lo, hi int, pos graph.Position, c graph.ID) (int, int) {
	first := lo + sort.Search(hi-lo, func(i int) bool { return arr[lo+i].At(pos) >= c })
	last := lo + sort.Search(hi-lo, func(i int) bool { return arr[lo+i].At(pos) > c })
	return first, last
}

func (it *patternIter) Count() int { return it.hi - it.lo }

func (it *patternIter) Empty() bool { return it.hi == it.lo }

func (it *patternIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	arr, lo, hi := it.order(pos), it.lo, it.hi
	// Values at the next level are sorted within the range: binary search c.
	i := lo + sort.Search(hi-lo, func(i int) bool { return arr[lo+i].At(pos) >= c })
	if i >= hi {
		return 0, false
	}
	return arr[i].At(pos), true
}

func (it *patternIter) Bind(pos graph.Position, c graph.ID) {
	it.frames[it.bound] = fframe{it.lo, it.hi}
	it.lo, it.hi = searchLevel(it.order(pos), it.lo, it.hi, pos, c)
	it.prefix[it.bound] = pos
	it.bound++
}

func (it *patternIter) Unbind() {
	if it.bound == 0 {
		panic("flattrie: Unbind with no bindings")
	}
	it.bound--
	f := it.frames[it.bound]
	it.lo, it.hi = f.lo, f.hi
}

// CanEnumerate: a flat trie can enumerate any unbound position (there is
// always an order listing it right after the bound prefix).
func (it *patternIter) CanEnumerate(pos graph.Position) bool {
	for _, p := range it.prefix[:it.bound] {
		if p == pos {
			return false
		}
	}
	return true
}

func (it *patternIter) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	arr, lo, hi := it.order(pos), it.lo, it.hi
	for lo < hi {
		c := arr[lo].At(pos)
		if !visit(c) {
			return
		}
		// Skip to the first triple with a larger coordinate.
		lo += sort.Search(hi-lo, func(i int) bool { return arr[lo+i].At(pos) > c })
	}
}
