package ltj

import "repro/internal/graph"

// RingdebugEnabled tells the external tests whether this build performs
// (and asserts) the binds descend elides.
const RingdebugEnabled = ringdebugEnabled

// lonelyChain is backwardChain by variable name: the pattern's lonely
// variables in the order chooseOrder appends them.
func lonelyChain(tp graph.TriplePattern, lonely map[string]bool) []string {
	var isLonely [3]bool
	for pos := graph.PosS; pos <= graph.PosO; pos++ {
		t := tp.Term(pos)
		isLonely[pos] = t.IsVar && lonely[t.Name]
	}
	chain, n := backwardChain(isLonely)
	var out []string
	for _, pos := range chain[:n] {
		out = append(out, tp.Term(pos).Name)
	}
	return out
}
