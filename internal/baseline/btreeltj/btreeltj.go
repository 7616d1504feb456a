// Package btreeltj is the repository's "Jena LTJ" analogue (Hogan et al.
// 2019): clustered B+-trees in all six attribute orders exposing the
// trie-iterator interface, driven by the same LTJ engine as the ring. It
// is worst-case optimal like the ring but pays for it with six full copies
// of the data in page-structured trees — the space/time trade-off the
// paper's Tables 1 and 2 quantify.
package btreeltj

import (
	"fmt"
	"sort"

	"repro/internal/baseline/btree"
	"repro/internal/graph"
	"repro/internal/ltj"
)

var perms = [6][3]graph.Position{
	{graph.PosS, graph.PosP, graph.PosO},
	{graph.PosS, graph.PosO, graph.PosP},
	{graph.PosP, graph.PosS, graph.PosO},
	{graph.PosP, graph.PosO, graph.PosS},
	{graph.PosO, graph.PosS, graph.PosP},
	{graph.PosO, graph.PosP, graph.PosS},
}

// Index holds the six trees.
type Index struct {
	trees [6]*btree.Tree
	n     int
}

// New bulk-loads the six orders.
func New(g *graph.Graph) *Index {
	idx := &Index{n: g.Len()}
	for i, p := range perms {
		idx.trees[i] = btree.NewTree(g.Triples(), p)
	}
	return idx
}

// SizeBytes returns the total footprint of the six trees.
func (idx *Index) SizeBytes() int {
	total := 0
	for _, t := range idx.trees {
		total += t.SizeBytes()
	}
	return total
}

// Len returns the number of indexed triples.
func (idx *Index) Len() int { return idx.n }

// treeFor returns the tree whose level order starts with exactly prefix.
func (idx *Index) treeFor(prefix []graph.Position) *btree.Tree {
	for i, p := range perms {
		ok := true
		for j, pos := range prefix {
			if p[j] != pos {
				ok = false
				break
			}
		}
		if ok {
			return idx.trees[i]
		}
	}
	panic(fmt.Sprintf("btreeltj: no order with prefix %v", prefix))
}

// NewPatternIter creates the trie-iterator for tp.
func (idx *Index) NewPatternIter(tp graph.TriplePattern) ltj.PatternIter {
	it := &patternIter{idx: idx}
	for _, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
		if t := tp.Term(pos); !t.IsVar {
			it.Bind(pos, t.Value)
		}
	}
	return it
}

// patternIter mirrors the flat-trie iterator, but every level search is a
// B+-tree descent. Ranges are global offsets into the clustered leaf
// level; they are identical across the trees sharing the current bound
// prefix sequence, so the iterator can hop between trees as new positions
// are bound.
type patternIter struct {
	idx    *Index
	prefix []graph.Position
	vals   []graph.ID
	lo, hi int
	frames []frame
}

type frame struct{ lo, hi int }

func (it *patternIter) tree(next ...graph.Position) *btree.Tree {
	return it.idx.treeFor(append(append([]graph.Position{}, it.prefix...), next...))
}

func (it *patternIter) curRange() (int, int) {
	if len(it.prefix) == 0 {
		return 0, it.idx.n
	}
	return it.lo, it.hi
}

func (it *patternIter) Count() int {
	lo, hi := it.curRange()
	return hi - lo
}

func (it *patternIter) Empty() bool { return it.Count() == 0 }

// levelKey builds the search key for the current prefix values followed by
// c at the next level (remaining coordinates zero).
func (it *patternIter) levelKey(c graph.ID) btree.Key {
	var k btree.Key
	copy(k[:], it.vals)
	k[len(it.vals)] = c
	return k
}

func (it *patternIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	t := it.tree(pos)
	lo, hi := it.curRange()
	if lo >= hi {
		return 0, false
	}
	i := t.LowerBound(it.levelKey(c))
	if i < lo {
		i = lo
	}
	if i >= hi {
		return 0, false
	}
	return t.At(i)[len(it.prefix)], true
}

func (it *patternIter) Bind(pos graph.Position, c graph.ID) {
	it.frames = append(it.frames, frame{it.lo, it.hi})
	t := it.tree(pos)
	lo, hi := it.curRange()
	nlo := t.LowerBound(it.levelKey(c))
	nhi := t.LowerBound(it.levelKey(c + 1)) // c+1 wraps to 0 only at MaxID
	if c == graph.MaxID {
		nhi = hi
	}
	if nlo < lo {
		nlo = lo
	}
	if nhi > hi {
		nhi = hi
	}
	if nhi < nlo {
		nhi = nlo
	}
	it.lo, it.hi = nlo, nhi
	it.prefix = append(it.prefix, pos)
	it.vals = append(it.vals, c)
}

func (it *patternIter) Unbind() {
	if len(it.prefix) == 0 {
		panic("btreeltj: Unbind with no bindings")
	}
	f := it.frames[len(it.frames)-1]
	it.frames = it.frames[:len(it.frames)-1]
	it.lo, it.hi = f.lo, f.hi
	it.prefix = it.prefix[:len(it.prefix)-1]
	it.vals = it.vals[:len(it.vals)-1]
}

func (it *patternIter) CanEnumerate(pos graph.Position) bool {
	for _, p := range it.prefix {
		if p == pos {
			return false
		}
	}
	return true
}

func (it *patternIter) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	t := it.tree(pos)
	lo, hi := it.curRange()
	level := len(it.prefix)
	for lo < hi {
		c := t.At(lo)[level]
		if !visit(c) {
			return
		}
		// Seek the first key with a larger coordinate at this level.
		lo += sort.Search(hi-lo, func(i int) bool { return t.At(lo + i)[level] > c })
	}
}
