// Package graph defines the data model shared by every index in this
// repository: dictionary-encoded triples, basic graph patterns (triple
// patterns with variables), and a naive reference evaluator used as the
// test oracle for the ring and all baselines.
//
// Following the paper (Section 4.1), subjects and objects share one
// identifier space [0, NumSO) and predicates use a separate space
// [0, NumP). A graph is a set — duplicate triples are discarded.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// ID is a dictionary-encoded constant. Subjects/objects and predicates live
// in separate ID spaces.
type ID = uint32

// MaxID is the largest representable identifier. Search loops that advance
// with "c = v + 1" after accepting a candidate v must treat v == MaxID as
// the end of the domain: the increment would wrap around to 0 and restart
// the scan, so MaxID doubles as the loop's termination sentinel.
const MaxID = ^ID(0)

// Triple is a subject–predicate–object edge s --p--> o.
type Triple struct {
	S, P, O ID
}

// Position identifies a component of a triple or triple pattern.
type Position int

// The three triple positions, in cyclic order S → P → O → S.
const (
	PosS Position = iota
	PosP
	PosO
)

// String returns "s", "p" or "o".
func (p Position) String() string {
	switch p {
	case PosS:
		return "s"
	case PosP:
		return "p"
	case PosO:
		return "o"
	}
	return fmt.Sprintf("Position(%d)", int(p))
}

// Next returns the position that cyclically follows p (s→p→o→s).
func (p Position) Next() Position { return (p + 1) % 3 }

// Prev returns the position that cyclically precedes p (s←p←o←s, i.e. the
// BWT "backward" direction).
func (p Position) Prev() Position { return (p + 2) % 3 }

// Term is one component of a triple pattern: either a constant ID or a
// named variable.
type Term struct {
	IsVar bool
	Value ID     // constant, valid when !IsVar
	Name  string // variable name, valid when IsVar
}

// Const returns a constant term.
func Const(v ID) Term { return Term{Value: v} }

// Var returns a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// String formats the term for diagnostics.
func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Name
	}
	return fmt.Sprintf("%d", t.Value)
}

// TriplePattern is a triple whose components may be variables.
type TriplePattern struct {
	S, P, O Term
}

// TP is shorthand for constructing a TriplePattern.
func TP(s, p, o Term) TriplePattern { return TriplePattern{S: s, P: p, O: o} }

// Term returns the term at the given position.
func (tp TriplePattern) Term(pos Position) Term {
	switch pos {
	case PosS:
		return tp.S
	case PosP:
		return tp.P
	case PosO:
		return tp.O
	}
	panic("graph: invalid position")
}

// String formats the pattern as "(s, p, o)".
func (tp TriplePattern) String() string {
	return fmt.Sprintf("(%s, %s, %s)", tp.S, tp.P, tp.O)
}

// Vars returns the distinct variable names of the pattern, in s,p,o order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, pos := range []Position{PosS, PosP, PosO} {
		if t := tp.Term(pos); t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// NumConstants returns how many of the three components are constants.
func (tp TriplePattern) NumConstants() int {
	n := 0
	for _, pos := range []Position{PosS, PosP, PosO} {
		if !tp.Term(pos).IsVar {
			n++
		}
	}
	return n
}

// Positions returns the positions (in s,p,o order) where the named variable
// occurs in the pattern.
func (tp TriplePattern) Positions(name string) []Position {
	var out []Position
	for _, pos := range []Position{PosS, PosP, PosO} {
		if t := tp.Term(pos); t.IsVar && t.Name == name {
			out = append(out, pos)
		}
	}
	return out
}

// Pattern is a basic graph pattern: a set of triple patterns evaluated as a
// conjunctive (join) query.
type Pattern []TriplePattern

// Vars returns the distinct variable names of the pattern, in first-use order.
func (q Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, tp := range q {
		for _, name := range tp.Vars() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

// Binding is one solution: an assignment of values to the pattern's
// variables.
type Binding map[string]ID

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Graph is an in-memory set of triples with its domain sizes. It is the
// input to every index builder and the substrate of the naive evaluator.
type Graph struct {
	triples []Triple // sorted (s,p,o), deduplicated
	numSO   ID       // subjects/objects are in [0, numSO)
	numP    ID       // predicates are in [0, numP)
}

// New builds a graph from triples, sorting and deduplicating them. The
// identifier spaces are sized from the data ((max value)+1), or larger if
// the caller provides explicit minimums via NewWithDomains.
func New(triples []Triple) *Graph {
	return NewWithDomains(triples, 0, 0)
}

// NewWithDomains builds a graph whose ID spaces are at least [0, minSO) and
// [0, minP).
func NewWithDomains(triples []Triple, minSO, minP ID) *Graph {
	ts := make([]Triple, len(triples))
	copy(ts, triples)
	SortSPO(ts)
	ts = dedup(ts)
	g := &Graph{triples: ts, numSO: minSO, numP: minP}
	for _, t := range ts {
		if t.S >= g.numSO {
			g.numSO = t.S + 1
		}
		if t.O >= g.numSO {
			g.numSO = t.O + 1
		}
		if t.P >= g.numP {
			g.numP = t.P + 1
		}
	}
	return g
}

func dedup(ts []Triple) []Triple {
	if len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// SortSPO sorts triples by (subject, predicate, object).
func SortSPO(ts []Triple) {
	slices.SortFunc(ts, func(a, b Triple) int {
		if c := cmp.Compare(a.S, b.S); c != 0 {
			return c
		}
		if c := cmp.Compare(a.P, b.P); c != 0 {
			return c
		}
		return cmp.Compare(a.O, b.O)
	})
}

// Len returns the number of (distinct) triples.
func (g *Graph) Len() int { return len(g.triples) }

// NumSO returns the size of the shared subject/object ID space.
func (g *Graph) NumSO() ID { return g.numSO }

// NumP returns the size of the predicate ID space.
func (g *Graph) NumP() ID { return g.numP }

// Triples returns the graph's triples sorted by (s,p,o). The slice is
// shared; callers must not mutate it.
func (g *Graph) Triples() []Triple { return g.triples }

// Contains reports whether the triple is in the graph, by binary search.
func (g *Graph) Contains(t Triple) bool {
	i := sort.Search(len(g.triples), func(i int) bool {
		a := g.triples[i]
		if a.S != t.S {
			return a.S >= t.S
		}
		if a.P != t.P {
			return a.P >= t.P
		}
		return a.O >= t.O
	})
	return i < len(g.triples) && g.triples[i] == t
}

// matches reports whether triple t matches pattern tp under binding b,
// and if so returns b extended with tp's variables.
func matches(tp TriplePattern, t Triple, b Binding) (Binding, bool) {
	vals := [3]ID{t.S, t.P, t.O}
	ext := b
	cloned := false
	for i, pos := range []Position{PosS, PosP, PosO} {
		term := tp.Term(pos)
		if !term.IsVar {
			if term.Value != vals[i] {
				return nil, false
			}
			continue
		}
		if v, ok := ext[term.Name]; ok {
			if v != vals[i] {
				return nil, false
			}
			continue
		}
		if !cloned {
			ext = b.Clone()
			cloned = true
		}
		ext[term.Name] = vals[i]
	}
	return ext, true
}

// Evaluate computes all solutions of the basic graph pattern q over g by
// exhaustive backtracking. It is intended as a correctness oracle for the
// indexed evaluators, not for performance. A non-positive limit means
// unlimited.
func (g *Graph) Evaluate(q Pattern, limit int) []Binding {
	var out []Binding
	if len(q) == 0 {
		return out
	}
	var rec func(i int, b Binding) bool
	rec = func(i int, b Binding) bool {
		if i == len(q) {
			out = append(out, b.Clone())
			return limit <= 0 || len(out) < limit
		}
		for _, t := range g.triples {
			if ext, ok := matches(q[i], t, b); ok {
				if !rec(i+1, ext) {
					return false
				}
			}
		}
		return true
	}
	rec(0, Binding{})
	return out
}

// CanonicalizeBindings returns a deterministic, sorted string form of a
// solution multiset, for comparing evaluator outputs in tests.
func CanonicalizeBindings(bs []Binding, vars []string) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		s := ""
		for _, v := range vars {
			s += fmt.Sprintf("%s=%d;", v, b[v])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}
