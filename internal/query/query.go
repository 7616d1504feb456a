// Package query layers the query-language features the paper leaves to
// future work ("support for other features of graph query languages could
// be simply layered on top", Section 1) over the LTJ evaluation core:
// projection, DISTINCT, per-solution filters, ORDER BY, OFFSET and LIMIT.
// Everything composes with any ltj.Index — ring, baselines, or the
// dynamic store.
package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/ltj"
)

// Filter accepts or rejects one solution.
type Filter func(graph.Binding) bool

// NotEqual filters solutions where two variables are bound to the same
// constant (e.g. to exclude degenerate triangles).
func NotEqual(x, y string) Filter {
	return func(b graph.Binding) bool { return b[x] != b[y] }
}

// Equal keeps solutions where two variables coincide.
func Equal(x, y string) Filter {
	return func(b graph.Binding) bool { return b[x] == b[y] }
}

// Less keeps solutions with b[x] < b[y] in identifier order — the usual
// symmetry-breaking trick for counting undirected motifs once.
func Less(x, y string) Filter {
	return func(b graph.Binding) bool { return b[x] < b[y] }
}

// ValueIn keeps solutions where x is bound to one of the given constants.
func ValueIn(x string, allowed ...graph.ID) Filter {
	set := make(map[graph.ID]bool, len(allowed))
	for _, v := range allowed {
		set[v] = true
	}
	return func(b graph.Binding) bool { return set[b[x]] }
}

// Select is a query with post-processing clauses.
type Select struct {
	// Pattern is the basic graph pattern to evaluate.
	Pattern graph.Pattern
	// Project lists the variables to keep (nil keeps all).
	Project []string
	// Distinct deduplicates projected solutions.
	Distinct bool
	// Filters are conjunctive per-solution predicates, applied before
	// projection.
	Filters []Filter
	// OrderBy sorts the results by the given variables ascending (applied
	// after projection; unlisted variables do not influence the order).
	OrderBy []string
	// Offset skips that many results (after ordering).
	Offset int
	// Limit caps the result count (0 = unlimited; applied after Offset).
	Limit int
	// Timeout bounds evaluation (0 = none).
	Timeout time.Duration
	// Context, when non-nil, cancels the evaluation when it is done (see
	// ltj.Options.Context). Cancellation surfaces as an error wrapping
	// ltj.ErrCancelled and the context's own Err().
	Context context.Context
	// Parallelism sets the LTJ worker count (0/1 = sequential; see
	// ltj.Options.Parallelism). With no ORDER BY the result order becomes
	// nondeterministic when > 1; filters, projection, DISTINCT and LIMIT
	// still apply streamingly, on the calling goroutine.
	Parallelism int
	// Stats, when non-nil, receives the engine's operation counts for the
	// evaluation (leaps, binds, seeks, enumerations).
	Stats *ltj.EvalStats
}

// Rows is a result set in the engine's slot form: N solutions over the
// columns Vars, solution i being IDs[i*len(Vars) : (i+1)*len(Vars)]. N is
// explicit because a query can have solutions and no columns (an
// all-ground pattern that holds, or an empty projection). Vars keeps the
// projection list as given, duplicates included.
type Rows struct {
	Vars []string
	IDs  []graph.ID
	N    int
}

// Row returns solution i; the slice aliases IDs.
func (r Rows) Row(i int) []graph.ID {
	k := len(r.Vars)
	return r.IDs[i*k : (i+1)*k]
}

// Rows evaluates the query over the index.
//
// Filters, projection, DISTINCT and (when no ORDER BY is present) OFFSET
// and LIMIT are applied streamingly during the join: the first Offset
// solutions are counted but not kept, and the join stops as soon as the
// window is full. ORDER BY forces full materialisation first. When the
// evaluation times out the rows kept so far are returned with the error,
// unsorted and unwindowed if an ORDER BY was pending.
func (s Select) Rows(idx ltj.Index) (Rows, error) {
	project, err := s.check()
	if err != nil {
		return Rows{}, err
	}
	rows := Rows{Vars: project}
	skip := 0
	if len(s.OrderBy) == 0 {
		skip = s.Offset
	}
	err = s.forEach(idx, project, func(row []graph.ID) bool {
		if skip > 0 {
			skip--
			return true
		}
		rows.IDs = append(rows.IDs, row...)
		rows.N++
		return true
	})
	if err == nil && len(s.OrderBy) > 0 {
		rows.orderAndCut(s.OrderBy, s.Offset, s.Limit)
	}
	return rows, err
}

// orderAndCut sorts the rows by the given columns (stable, ascending;
// variables outside the projection cannot influence the order) and keeps
// the [offset, offset+limit) window.
func (r *Rows) orderAndCut(orderBy []string, offset, limit int) {
	var cols []int
	for _, v := range orderBy {
		if c := slices.Index(r.Vars, v); c >= 0 {
			cols = append(cols, c)
		}
	}
	perm := make([]int, r.N)
	for i := range perm {
		perm[i] = i
	}
	if len(cols) > 0 {
		slices.SortStableFunc(perm, func(a, b int) int {
			ra, rb := r.Row(a), r.Row(b)
			for _, c := range cols {
				if ra[c] != rb[c] {
					return cmp.Compare(ra[c], rb[c])
				}
			}
			return 0
		})
	}
	perm = perm[min(offset, len(perm)):]
	if limit > 0 && len(perm) > limit {
		perm = perm[:limit]
	}
	ids := make([]graph.ID, 0, len(perm)*len(r.Vars))
	for _, i := range perm {
		ids = append(ids, r.Row(i)...)
	}
	r.IDs, r.N = ids, len(perm)
}

// Run evaluates the query like Rows and returns one Binding per solution.
func (s Select) Run(idx ltj.Index) ([]graph.Binding, error) {
	rows, err := s.Rows(idx)
	out := slices.Grow([]graph.Binding(nil), rows.N) // nil when there are none
	for i := 0; i < rows.N; i++ {
		row := rows.Row(i)
		b := make(graph.Binding, len(row))
		for j, v := range rows.Vars {
			b[v] = row[j]
		}
		out = append(out, b)
	}
	return out, err
}

// Count evaluates the query and returns only the number of solutions
// (respecting filters, DISTINCT, OFFSET and LIMIT; ordering cannot change
// the count and is ignored). It shares Rows's streaming core but never
// materialises the solutions.
func (s Select) Count(idx ltj.Index) (int, error) {
	s.OrderBy = nil
	project, err := s.check()
	if err != nil {
		return 0, err
	}
	n := 0
	err = s.forEach(idx, project, func([]graph.ID) bool {
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	// forEach stopped at Offset+Limit, so what is left after the offset is
	// within the limit already.
	return max(n-s.Offset, 0), nil
}

// check validates the clause variables and resolves the effective
// projection list.
func (s Select) check() ([]string, error) {
	vars := s.Pattern.Vars()
	varSet := map[string]bool{}
	for _, v := range vars {
		varSet[v] = true
	}
	project := s.Project
	if project == nil {
		project = vars
	}
	for _, v := range project {
		if !varSet[v] {
			return nil, fmt.Errorf("query: projected variable %q not in pattern", v)
		}
	}
	for _, v := range s.OrderBy {
		if !varSet[v] {
			return nil, fmt.Errorf("query: order-by variable %q not in pattern", v)
		}
	}
	if s.Offset < 0 {
		return nil, fmt.Errorf("query: negative offset %d", s.Offset)
	}
	return project, nil
}

// forEach is the streaming core under Rows, Run and Count: it evaluates
// the join on the engine's slots and yields the projection of every
// solution that survives the filters and DISTINCT, stopping once
// Offset+Limit solutions have been yielded (when no ORDER BY needs them
// all). The row passed to yield is reused; yield copies what it keeps.
func (s Select) forEach(idx ltj.Index, project []string, yield func(row []graph.ID) bool) error {
	stop := 0 // yields after which the join stops; 0 = never
	if len(s.OrderBy) == 0 && s.Limit > 0 {
		stop = math.MaxInt // a window the sum cannot express never fills
		if s.Limit <= math.MaxInt-s.Offset {
			stop = s.Offset + s.Limit
		}
	}
	stats := s.Stats
	if stats == nil {
		stats = &ltj.EvalStats{}
	}
	opt := ltj.Options{Timeout: s.Timeout, Context: s.Context, Parallelism: s.Parallelism}
	var (
		slots  []int // slots[i] is project[i]'s place in the engine's order
		row    = make([]graph.ID, len(project))
		filter graph.Binding // the one Binding the filters read, if any exist
		seen   map[string]struct{}
		key    []byte
	)
	if len(s.Filters) > 0 {
		filter = graph.Binding{}
	}
	if s.Distinct {
		seen = map[string]struct{}{}
	}
	n := 0
	return ltj.StreamSlots(idx, s.Pattern, opt, stats, func(order []string, vals []graph.ID) bool {
		if slots == nil {
			slots = make([]int, len(project))
			for i, v := range project {
				slots[i] = slices.Index(order, v)
			}
		}
		if filter != nil {
			for j, name := range order {
				filter[name] = vals[j]
			}
			for _, f := range s.Filters {
				if !f(filter) {
					return true
				}
			}
		}
		for i, j := range slots {
			row[i] = vals[j]
		}
		if seen != nil {
			key = appendRowKey(key[:0], row)
			if _, dup := seen[string(key)]; dup {
				return true
			}
			seen[string(key)] = struct{}{}
		}
		n++
		return yield(row) && (stop == 0 || n < stop)
	})
}
