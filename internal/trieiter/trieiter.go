// Package trieiter defines the per-triple-pattern trie-iterator
// abstraction (Definition 2.1 of the paper, extended with explicit
// binding state) shared by the LTJ engine and every index that plugs
// into it — the ring, the flat tries, the B+-tree orders, the
// unidirectional ablation, and the dynamic store's union iterator —
// together with the one optional capability the engine probes for,
// RunLeaper.
//
// The interface lives in its own leaf package (rather than in the engine
// package internal/ltj) so that index packages whose types the engine's
// tests exercise — notably internal/ring — can also name it without an
// import cycle. internal/ltj re-exports Iter under its historical name
// (ltj.PatternIter) via an alias, so engine-side code is unaffected.
//
// An Iter is a cursor: it is used by one goroutine at a time. Parallel
// evaluation gives every worker its own iterators, opened from the index
// like the sequential ones; the index behind them is shared read-only.
package trieiter

import (
	"repro/internal/graph"
	"repro/internal/wavelet"
)

// Iter maintains the set of triples matching one triple pattern under a
// stack of position bindings.
type Iter interface {
	// Count returns the number of triples currently matching. It backs the
	// cardinality statistics used for the variable elimination order.
	Count() int
	// Empty reports whether no triples currently match.
	Empty() bool
	// Leap returns the smallest constant >= c that can bind position pos
	// while keeping the pattern non-empty, or ok=false if none exists.
	// pos must be unbound.
	Leap(pos graph.Position, c graph.ID) (graph.ID, bool)
	// Bind fixes pos to c, narrowing the match set (possibly to empty).
	Bind(pos graph.Position, c graph.ID)
	// Unbind undoes the most recent Bind.
	Unbind()
	// CanEnumerate reports whether Enumerate is supported for pos under
	// the current bindings.
	CanEnumerate(pos graph.Position) bool
	// Enumerate visits the distinct values that can bind pos, in
	// increasing order, stopping early if visit returns false.
	Enumerate(pos graph.Position, visit func(graph.ID) bool)
}

// RunLeaper is the optional capability behind the engine's batched
// radix-intersection lane (DESIGN.md §13): an iterator whose Leap(pos, ·)
// candidates are exactly the distinct symbols of one contiguous
// wavelet-matrix range. When every iterator touching a join variable
// exposes such a range (over matrices of equal width), the engine
// replaces ping-pong leapfrogging with one wavelet.IntersectRanges
// descent over all the ranges at once.
type RunLeaper interface {
	Iter
	// LeapRun returns the matrix range whose distinct values are the
	// pattern's current candidates for pos, and whether the batched form
	// applies under the current bindings (for the ring: only the
	// backward-leap direction reads a contiguous column range). When
	// ok is false the caller must fall back to scalar Leap calls.
	LeapRun(pos graph.Position) (wavelet.MatrixRange, bool)
}
