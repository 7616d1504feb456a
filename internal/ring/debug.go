package ring

import (
	"cmp"
	"fmt"

	"repro/internal/graph"
)

// Runtime assertion hooks for the ringdebug build tag, called behind
// `if ringdebugEnabled { ... }` so normal builds eliminate them entirely.

// debugCheckLeap asserts the contract of Lemma 3.7 on a successful leap:
// the returned candidate is ≥ the cursor and inside the alphabet of the
// leapt position.
func (ps *PatternState) debugCheckLeap(pos graph.Position, c, v graph.ID) {
	if v < c {
		panic(fmt.Sprintf("ringdebug: ring: Leap(%v, %d) returned %d < cursor (ordering contract violated)", pos, c, v))
	}
	if a := ps.r.alphabetOf(ZoneOf(pos)); v >= a {
		panic(fmt.Sprintf("ringdebug: ring: Leap(%v, %d) returned %d outside alphabet [0,%d)", pos, c, v, a))
	}
}

// debugCheckBatchLeap asserts the batched leap is indistinguishable from
// the scalar one: the appended values must equal the chain of Leap calls
// starting at c (strictly increasing by construction of the chain).
func (ps *PatternState) debugCheckBatchLeap(pos graph.Position, c graph.ID, buf []graph.ID) {
	want := c
	for i, v := range buf {
		sv, ok := ps.Leap(pos, want)
		if !ok || sv != v {
			panic(fmt.Sprintf("ringdebug: ring: BatchLeap(%v, %d)[%d] = %d disagrees with scalar Leap (%d, %v)",
				pos, c, i, v, sv, ok))
		}
		if v == graph.MaxID {
			return
		}
		want = v + 1
	}
}

// debugCheckRange asserts the BWT range stays well-formed after a Bind:
// 0 <= lo <= hi <= n.
func (ps *PatternState) debugCheckRange() {
	if ps.lo < 0 || ps.hi < ps.lo || ps.hi > ps.r.n {
		panic(fmt.Sprintf("ringdebug: ring: range [%d,%d) outside [0,%d] after Bind", ps.lo, ps.hi, ps.r.n))
	}
}

// debugCheckRotation asserts that New derived zone z's rotation order
// correctly: n triples, strictly increasing in the zone's cyclic key (the
// graph's triples are distinct, so no two keys tie).
func debugCheckRotation(z Zone, sorted []graph.Triple, n int) {
	if len(sorted) != n {
		panic(fmt.Sprintf("ringdebug: ring: zone %v rotation has %d triples, want %d", z, len(sorted), n))
	}
	p0, p1, p2 := z.Start(), z.Start().Next(), z.Start().Prev()
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if cmp.Or(cmp.Compare(a.At(p0), b.At(p0)), cmp.Compare(a.At(p1), b.At(p1)), cmp.Compare(a.At(p2), b.At(p2))) >= 0 {
			panic(fmt.Sprintf("ringdebug: ring: zone %v rotation not strictly sorted at %d: %v then %v", z, i, a, b))
		}
	}
}
