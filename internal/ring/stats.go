package ring

import (
	"repro/internal/graph"
)

// Stats are index-wide statistics the ring answers from its C arrays and
// wavelet matrices without any profiling pass — the Section 4.3 property
// that the index doubles as its own statistics store.
type Stats struct {
	// Triples is the indexed edge count.
	Triples int
	// DistinctSubjects, DistinctPredicates and DistinctObjects count the
	// identifiers that actually occur in each role.
	DistinctSubjects, DistinctPredicates, DistinctObjects int
}

// Stats scans the C arrays once (O(U) time, no extra space) and returns
// the global statistics.
func (r *Ring) Stats() Stats {
	st := Stats{Triples: r.n}
	for z, out := range map[Zone]*int{
		ZoneSPO: &st.DistinctSubjects,
		ZonePOS: &st.DistinctPredicates,
		ZoneOSP: &st.DistinctObjects,
	} {
		c := r.c[z]
		prev := uint64(0)
		for i := 1; i < c.Len(); i++ {
			if v := c.Get(i); v > prev {
				*out++
				prev = v
			}
		}
	}
	return st
}

// PatternCount returns the number of triples matching the pattern's
// constants (its variables unconstrained) in O(log U) time — the
// cardinality statistic the variable ordering uses, exposed for external
// planners.
func (r *Ring) PatternCount(tp graph.TriplePattern) int {
	return r.NewPatternState(tp).Count()
}

// PredicateCount returns the number of triples with the given predicate,
// straight from C_p — the most common selectivity question in graph
// planning, answered in O(1) array lookups.
func (r *Ring) PredicateCount(p graph.ID) int {
	lo, hi := r.CRange(ZonePOS, p)
	return hi - lo
}

// TopPredicates returns the k most frequent predicates with their counts,
// in decreasing count order (ties by identifier). It scans C_p once.
func (r *Ring) TopPredicates(k int) []PredicateStat {
	var out []PredicateStat
	for p := graph.ID(0); p < r.numP; p++ {
		cnt := r.PredicateCount(p)
		if cnt == 0 {
			continue
		}
		out = append(out, PredicateStat{P: p, Count: cnt})
	}
	// Partial selection sort is fine: k is small.
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Count > out[best].Count ||
				(out[j].Count == out[best].Count && out[j].P < out[best].P) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// PredicateStat pairs a predicate with its triple count.
type PredicateStat struct {
	P     graph.ID
	Count int
}
