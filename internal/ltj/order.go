package ltj

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// chooseOrder computes the variable elimination order.
//
// Following Section 4.3, variables that appear in more than one triple
// pattern ("join variables") are eliminated first, by increasing minimum
// cardinality c_min(x) = min over patterns mentioning x of the pattern's
// current match count, preferring at each step a variable that shares a
// pattern with one already ordered. Lonely variables (appearing in exactly
// one pattern, at one position) come last, grouped by pattern and ordered
// along the pattern's backward chain so the index can enumerate them
// (Section 4.2).
func (e *evaluator) chooseOrder(q graph.Pattern) ([]string, error) {
	// Number the variables of the live (non-ground) patterns in first-use
	// order: at[i][pos] is the number of the variable at position pos of
	// pattern i, or -1 for a constant.
	var names []string
	at := make([][3]int, len(e.pats))
	for i := range e.pats {
		for pos := graph.PosS; pos <= graph.PosO; pos++ {
			k := -1
			if t := e.pats[i].tp.Term(pos); t.IsVar {
				if k = slices.Index(names, t.Name); k < 0 {
					k = len(names)
					names = append(names, t.Name)
				}
			}
			at[i][pos] = k
		}
	}

	if e.opt.Order != nil {
		if len(e.opt.Order) != len(names) {
			return nil, fmt.Errorf("ltj: explicit order has %d variables, query has %d",
				len(e.opt.Order), len(names))
		}
		seen := make([]bool, len(names))
		for _, v := range e.opt.Order {
			k := slices.Index(names, v)
			if k < 0 || seen[k] {
				return nil, fmt.Errorf("ltj: explicit order mentions unknown variable %q", v)
			}
			seen[k] = true
		}
		return e.opt.Order, nil
	}

	// Classify variables: lonely = one occurrence in the whole query
	// (exactly one pattern, exactly one position). cmin[k] is the smallest
	// current match count of a pattern mentioning variable k.
	occ, cmin := make([]int, len(names)), make([]int, len(names))
	for k := range cmin {
		cmin[k] = math.MaxInt
	}
	for i := range e.pats {
		c := e.pats[i].it.Count()
		for _, k := range at[i] {
			if k >= 0 {
				occ[k]++
				cmin[k] = min(cmin[k], c)
			}
		}
	}
	mentions := func(i, k int) bool { return at[i][0] == k || at[i][1] == k || at[i][2] == k }

	// Order the join variables by increasing c_min with a connectivity
	// preference.
	order := make([]string, 0, len(names))
	placed, chosenPats := make([]bool, len(names)), make([]bool, len(e.pats))
	for {
		best, bestCost, bestConn := -1, math.MaxInt, false
		for k := range names {
			if occ[k] == 1 || placed[k] {
				continue
			}
			conn := len(order) == 0 // no connectivity constraint for the first pick
			for i := range e.pats {
				conn = conn || chosenPats[i] && mentions(i, k)
			}
			// Prefer connected variables; among equals, smaller c_min wins;
			// ties break by query order (stable since we scan in order).
			if (conn && !bestConn) || (conn == bestConn && cmin[k] < bestCost) {
				best, bestCost, bestConn = k, cmin[k], conn
			}
		}
		if best < 0 {
			break
		}
		placed[best] = true
		order = append(order, names[best])
		for i := range e.pats {
			chosenPats[i] = chosenPats[i] || mentions(i, best)
		}
	}

	// Append lonely variables, per pattern, along the backward chain from
	// the pattern's bound run so that Enumerate applies at each step.
	for i := range e.pats {
		var lonely [3]bool
		for pos, k := range at[i] {
			lonely[pos] = k >= 0 && occ[k] == 1
		}
		chain, n := backwardChain(lonely)
		for _, pos := range chain[:n] {
			order = append(order, names[at[i][pos]])
		}
	}
	return order, nil
}

// backwardChain orders a pattern's lonely positions so that each one is
// backward-adjacent to the bound run when its turn comes. The run at that
// time consists of the pattern's constants and join-variable positions;
// the chain proceeds from the run start cyclically backward. With an empty
// run the chain starts at the subject (bound by a leap) and proceeds
// backward (o, then p).
func backwardChain(lonely [3]bool) (chain [3]graph.Position, n int) {
	nBound := 0
	for _, l := range lonely {
		if !l {
			nBound++
		}
	}
	switch nBound {
	case 3:
		return chain, 0
	case 0:
		// Bind the subject first, then backward: o, p.
		return [3]graph.Position{graph.PosS, graph.PosO, graph.PosP}, 3
	}
	// Run start: the bound position whose predecessor is unbound.
	var start graph.Position
	for pos := graph.PosS; pos <= graph.PosO; pos++ {
		if !lonely[pos] && lonely[pos.Prev()] {
			start = pos
			break
		}
	}
	for pos := start.Prev(); lonely[pos]; pos = pos.Prev() {
		chain[n] = pos
		n++
	}
	return chain, n
}
