package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/testutil"
)

// referenceRun is Select's semantics spelled out over ltj.Evaluate's maps,
// sharing nothing with the row core: filter, project, DISTINCT, stable
// ORDER BY on the projected maps, OFFSET, LIMIT.
func referenceRun(t *testing.T, idx ltj.Index, s Select) []graph.Binding {
	t.Helper()
	res, err := ltj.Evaluate(idx, s.Pattern, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	project := s.Project
	if project == nil {
		project = s.Pattern.Vars()
	}
	var out []graph.Binding
	seen := map[string]bool{}
solutions:
	for _, b := range res.Solutions {
		for _, f := range s.Filters {
			if !f(b) {
				continue solutions
			}
		}
		proj := graph.Binding{}
		for _, v := range project {
			proj[v] = b[v]
		}
		if s.Distinct {
			key := BindingKey(proj, project)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out = append(out, proj)
	}
	sort.SliceStable(out, func(i, j int) bool {
		for _, v := range s.OrderBy {
			if out[i][v] != out[j][v] {
				return out[i][v] < out[j][v]
			}
		}
		return false
	})
	out = out[min(s.Offset, len(out)):]
	if s.Limit > 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	return out
}

// rowMaps turns Rows back into one map per solution, the way every
// consumer of Rows does.
func rowMaps(rows Rows) []graph.Binding {
	var out []graph.Binding
	for i := 0; i < rows.N; i++ {
		b := graph.Binding{}
		for j, v := range rows.Vars {
			b[v] = rows.Row(i)[j]
		}
		out = append(out, b)
	}
	return out
}

func sameSequence(got, want []graph.Binding) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// TestRowsAgainstReference runs Rows and Run against the map-based
// reference over every clause, on a ring and on a dynamic snapshot (ring ∪
// memtable). Sequential evaluations must agree solution for solution, in
// order. Parallel ones define the order only through ORDER BY, and a
// streaming cut keeps whichever solutions arrived first: those are held to
// the reference as multisets, or as a sub-multiset of the right size.
func TestRowsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	g := testutil.RandomGraph(rng, 400, 25, 3)
	ts := g.Triples()
	st := dynamic.FromGraph(graph.NewWithDomains(ts[:300], g.NumSO(), g.NumP()), dynamic.Options{})
	defer st.Close()
	st.AddBatch(ts[300:])
	snap := st.Snapshot()
	if snap.MemtableLen() == 0 || len(snap.Rings()) == 0 {
		t.Fatalf("dynamic snapshot is not a union: %d buffered, %d rings", snap.MemtableLen(), len(snap.Rings()))
	}
	indexes := []struct {
		name string
		idx  ltj.Index
	}{
		{"ring", ringIndex(g)},
		{"dynamic", ltj.IndexFunc(snap.NewPatternIter)},
	}

	for trial := 0; trial < 120; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(3), 2+rng.Intn(2), 0.3, trial%4 == 0)
		vars := q.Vars()
		if len(vars) == 0 {
			continue
		}
		pick := func() string { return vars[rng.Intn(len(vars))] }
		s := Select{Pattern: q, Distinct: rng.Intn(2) == 0, Parallelism: []int{0, 0, 3}[rng.Intn(3)]}
		switch rng.Intn(4) {
		case 0: // keep all
		case 1:
			s.Project = []string{pick()}
		case 2:
			s.Project = []string{pick(), pick()} // may repeat a name
		case 3:
			s.Project = []string{}
		}
		if rng.Intn(2) == 0 {
			s.OrderBy = []string{pick()} // may lie outside the projection
			if rng.Intn(2) == 0 {
				s.OrderBy = append(s.OrderBy, pick())
			}
		}
		if len(vars) > 1 && rng.Intn(3) == 0 {
			s.Filters = []Filter{NotEqual(vars[0], vars[1])}
		}
		if rng.Intn(2) == 0 {
			s.Offset = rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			s.Limit = 1 + rng.Intn(6)
		}

		for _, ix := range indexes {
			name := fmt.Sprintf("trial %d on %s: %+v", trial, ix.name, s)
			want := referenceRun(t, ix.idx, s)
			rows, err := s.Rows(ix.idx)
			if err != nil {
				t.Fatalf("%s: Rows: %v", name, err)
			}
			run, err := s.Run(ix.idx)
			if err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			n, err := s.Count(ix.idx)
			if err != nil {
				t.Fatalf("%s: Count: %v", name, err)
			}
			if n != len(want) {
				t.Fatalf("%s: Count = %d, want %d", name, n, len(want))
			}
			project := rows.Vars
			for label, got := range map[string][]graph.Binding{"Rows": rowMaps(rows), "Run": run} {
				switch {
				case s.Parallelism <= 1:
					if !sameSequence(got, want) {
						t.Fatalf("%s: %s = %v, want %v", name, label, got, want)
					}
				case len(s.OrderBy) == 0 && (s.Offset > 0 || s.Limit > 0):
					// Any window of the right size over the full result.
					full := s
					full.Offset, full.Limit = 0, 0
					if len(got) != len(want) || !subMultiset(got, referenceRun(t, ix.idx, full), project) {
						t.Fatalf("%s: %s = %v is not a %d-solution window of the result", name, label, got, len(want))
					}
				case s.Offset > 0 || s.Limit > 0:
					// ORDER BY ties may resolve differently under
					// parallelism; the sort keys of the window may not.
					if !sameSequence(restrict(got, s.OrderBy), restrict(want, s.OrderBy)) {
						t.Fatalf("%s: %s order keys = %v, want %v", name, label, got, want)
					}
				default:
					if diff := testutil.SameSolutions(got, want, project); diff != "" {
						t.Fatalf("%s: %s: %s", name, label, diff)
					}
					if !sameSequence(restrict(got, s.OrderBy), restrict(want, s.OrderBy)) {
						t.Fatalf("%s: %s is not in ORDER BY order: %v", name, label, got)
					}
				}
			}
		}
	}
}

// restrict projects every solution onto vars (as Run's ORDER BY sees
// them: a variable outside the projection reads as absent).
func restrict(sols []graph.Binding, vars []string) []graph.Binding {
	out := make([]graph.Binding, len(sols))
	for i, b := range sols {
		out[i] = graph.Binding{}
		for _, v := range vars {
			if x, ok := b[v]; ok {
				out[i][v] = x
			}
		}
	}
	return out
}

func subMultiset(sub, all []graph.Binding, vars []string) bool {
	have := map[string]int{}
	for _, b := range all {
		have[BindingKey(b, vars)]++
	}
	for _, b := range sub {
		key := BindingKey(b, vars)
		if have[key]--; have[key] < 0 {
			return false
		}
	}
	return true
}

// TestRowsTimeoutCut stalls the evaluation past its deadline from inside
// a filter, after some solutions have been produced: Rows and Run must
// both report ErrTimeout and return what they had — a non-empty prefix of
// the untimed stream (after the offset when it streams; before sorting
// when an ORDER BY was pending).
func TestRowsTimeoutCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx := ringIndex(testutil.RandomGraph(rng, 2000, 50, 2))
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Var("q"), graph.Var("z")),
	}
	for _, s := range []Select{
		{Pattern: q},
		{Pattern: q, Offset: 7},
		{Pattern: q, OrderBy: []string{"x"}, Offset: 7, Limit: 3},
		{Pattern: q, Project: []string{"z", "x"}, Distinct: true},
	} {
		untimed := s
		untimed.OrderBy, untimed.Limit = nil, 0
		if len(s.OrderBy) > 0 {
			untimed.Offset = 0
		}
		full, err := untimed.Run(idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []func(Select) ([]graph.Binding, error){
			func(s Select) ([]graph.Binding, error) { rows, err := s.Rows(idx); return rowMaps(rows), err },
			func(s Select) ([]graph.Binding, error) { return s.Run(idx) },
		} {
			seen := 0
			s.Timeout = 20 * time.Millisecond
			s.Filters = []Filter{func(graph.Binding) bool {
				if seen++; seen == 50 {
					time.Sleep(3 * s.Timeout)
				}
				return true
			}}
			got, err := run(s)
			if !errors.Is(err, ltj.ErrTimeout) {
				t.Fatalf("%+v: error = %v, want ErrTimeout", s, err)
			}
			if len(got) == 0 || len(got) >= len(full) || !sameSequence(got, full[:len(got)]) {
				t.Fatalf("%+v: %d solutions that are not a proper prefix of the %d untimed ones", s, len(got), len(full))
			}
		}
	}
}

// TestWindowOverflow: a hostile offset or limit makes Offset+Limit exceed
// the int range. The window must still be the honest one, and finding it
// must not materialise the solutions the offset discards (the wrapped sum
// used to switch the streaming stop off, so everything was kept until the
// timeout).
func TestWindowOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	g := testutil.RandomGraph(rng, 2000, 50, 2)
	idx := ringIndex(g)
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	total := g.Len()
	for _, tc := range []struct {
		name          string
		offset, limit int
		want          int
	}{
		{"offset at the int maximum", math.MaxInt, 10, 0},
		{"sum one past the maximum", math.MaxInt - 9, 10, 0},
		{"limit at the int maximum", total - 3, math.MaxInt, 3},
		{"sum exactly the maximum", total - 3, math.MaxInt - (total - 3), 3},
		{"both at the maximum", math.MaxInt, math.MaxInt, 0},
		{"in range", 5, 10, 10},
	} {
		s := Select{Pattern: q, Offset: tc.offset, Limit: tc.limit}
		rows, err := s.Rows(idx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rows.N != tc.want {
			t.Errorf("%s: %d solutions, want %d", tc.name, rows.N, tc.want)
		}
		// Only the window is ever held: the offset's solutions are counted
		// as they stream past, not materialised and then sliced away.
		if held := cap(rows.IDs) / len(rows.Vars); held > 2*tc.want+8 {
			t.Errorf("%s: Rows holds room for %d solutions to return %d", tc.name, held, tc.want)
		}
		if n, err := s.Count(idx); err != nil || n != tc.want {
			t.Errorf("%s: Count = %d, %v, want %d", tc.name, n, err, tc.want)
		}
	}
}
