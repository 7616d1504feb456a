package ltj

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// debugCheckLeapOrder asserts the trie-iterator ordering contract the
// engine's seek loop relies on (Algorithm 1): Leap(pos, c) never returns
// a value below c. Called behind `if ringdebugEnabled { ... }` so normal
// builds eliminate it entirely.
func debugCheckLeapOrder(c, v graph.ID) {
	if v < c {
		panic(fmt.Sprintf("ringdebug: ltj: iterator leap returned %d < cursor %d (ordering contract violated)", v, c))
	}
}

// debugCheckBatchEmit asserts the batched lane's contract (DESIGN.md
// §13): emissions strictly increase, and — sampled — each emitted value
// is exactly what the scalar seek loop would have accepted, i.e. every
// iterator's Leap at the value returns the value itself.
func (e *evaluator) debugCheckBatchEmit(ivs []iterVar, v, prev graph.ID, havePrev bool) {
	if havePrev && v <= prev {
		panic(fmt.Sprintf("ringdebug: ltj: batched lane emitted %d after %d — not strictly increasing", v, prev))
	}
	if e.stats.BatchEmits&15 != 1 {
		return
	}
	for _, iv := range ivs {
		got, ok := iv.it.Leap(iv.positions[0], v)
		if !ok || got != v {
			panic(fmt.Sprintf("ringdebug: ltj: batched emission %d disagrees with scalar Leap (%d, %v)", v, got, ok))
		}
	}
}

// debugCheckElidedBind performs a bind descend skips — the iterator is
// read by no deeper variable — and asserts what the elision rests on: the
// iterator stays non-empty under v.
func debugCheckElidedBind(iv *iterVar, v graph.ID) {
	for _, pos := range iv.positions {
		iv.it.Bind(pos, v)
	}
	empty := iv.it.Empty()
	for range iv.positions {
		iv.it.Unbind()
	}
	if empty {
		panic(fmt.Sprintf("ringdebug: ltj: value %d leaves pattern %d empty — the elided Bind was not redundant", v, iv.pat))
	}
}

// debugCheckReplay re-runs the enumeration a replay stands in for and
// asserts that it yields the recorded sequence: the pattern's range is the
// one the record was taken under.
func debugCheckReplay(d *depth) {
	iv := &d.ivs[0]
	var fresh []graph.ID
	iv.it.Enumerate(iv.positions[0], func(c graph.ID) bool {
		fresh = append(fresh, c)
		return true
	})
	if !slices.Equal(fresh, d.record) {
		panic(fmt.Sprintf("ringdebug: ltj: replay of pattern %d holds %d values, a fresh enumeration %d (or in another order) — the replay key is stale", iv.pat, len(d.record), len(fresh)))
	}
}
