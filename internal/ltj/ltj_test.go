package ltj

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
)

func ringIndex(g *graph.Graph, opt ring.Options) Index {
	r := ring.New(g, opt)
	return IndexFunc(func(tp graph.TriplePattern) PatternIter {
		return r.NewPatternState(tp)
	})
}

func evalBoth(t *testing.T, g *graph.Graph, q graph.Pattern, opt Options) []graph.Binding {
	t.Helper()
	res, err := Evaluate(ringIndex(g, ring.Options{}), q, opt)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return res.Solutions
}

func TestPaperFigure4Query(t *testing.T) {
	g := testutil.PaperGraph()
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("z"), graph.Const(0), graph.Var("y")),
	}
	got := evalBoth(t, g, q, Options{})
	want := g.Evaluate(q, 0)
	if diff := testutil.SameSolutions(got, want, q.Vars()); diff != "" {
		t.Fatalf("paper query: %s", diff)
	}
	if len(got) != 3 {
		t.Fatalf("paper query returned %d solutions, want 3", len(got))
	}
}

func TestIntroductionExample(t *testing.T) {
	// The introduction's Q = R ⋈ S ⋈ T example, encoded as a graph with
	// one predicate per relation: R(x,y) → (x, 0, y), S(y,z) → (y, 1, z),
	// T(x,z) → (x, 2, z). Expected solutions: (1,2,4) and (1,3,4).
	g := graph.New([]graph.Triple{
		{S: 1, P: 0, O: 2}, {S: 1, P: 0, O: 3}, {S: 2, P: 0, O: 3}, // R
		{S: 2, P: 1, O: 4}, {S: 3, P: 1, O: 4}, {S: 3, P: 1, O: 5}, // S
		{S: 1, P: 2, O: 4}, {S: 3, P: 2, O: 5}, // T
	})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("z")),
	}
	got := evalBoth(t, g, q, Options{})
	want := map[[3]graph.ID]bool{{1, 2, 4}: true, {1, 3, 4}: true}
	if len(got) != 2 {
		t.Fatalf("got %d solutions, want 2: %v", len(got), got)
	}
	for _, b := range got {
		if !want[[3]graph.ID{b["x"], b["y"], b["z"]}] {
			t.Errorf("unexpected solution %v", b)
		}
	}
}

// TestRandomQueriesAgainstOracle is the central end-to-end equivalence
// test: LTJ over the ring must produce exactly the naive evaluator's
// solutions for random patterns of every shape.
func TestRandomQueriesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	configs := []struct {
		name     string
		ropt     ring.Options
		eopt     Options
		firstUse bool // force the query's first-use order through Options.Order
	}{
		{"ring", ring.Options{}, Options{}, false},
		{"c-ring", ring.Options{Compress: true, RRRBlock: 16}, Options{}, false},
		{"no-lonely", ring.Options{}, Options{DisableLonely: true}, false},
		{"no-order-heuristic", ring.Options{}, Options{}, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			g := testutil.RandomGraph(rng, 120, 15, 3)
			idx := ringIndex(g, cfg.ropt)
			for trial := 0; trial < 150; trial++ {
				nt := 1 + rng.Intn(4)
				nv := 1 + rng.Intn(4)
				q := testutil.RandomPattern(rng, g, nt, nv, 0.4, false)
				want := g.Evaluate(q, 0)
				opt := cfg.eopt
				if cfg.firstUse {
					opt.Order = q.Vars()
				}
				res, err := Evaluate(idx, q, opt)
				if err != nil {
					t.Fatalf("trial %d query %v: %v", trial, q, err)
				}
				if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
					t.Fatalf("trial %d query %v: %s", trial, q, diff)
				}
			}
		})
	}
}

func TestRepeatedVariablesWithinPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := testutil.RandomGraph(rng, 100, 10, 3)
	// Ensure some self-loops exist so the queries are non-trivial.
	ts := append([]graph.Triple{}, g.Triples()...)
	for i := 0; i < 8; i++ {
		s := graph.ID(rng.Intn(10))
		ts = append(ts, graph.Triple{S: s, P: graph.ID(rng.Intn(3)), O: s})
	}
	g = graph.NewWithDomains(ts, 10, 3)
	idx := ringIndex(g, ring.Options{})

	queries := []graph.Pattern{
		{graph.TP(graph.Var("x"), graph.Const(0), graph.Var("x"))},
		{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("x"))},
		{
			graph.TP(graph.Var("x"), graph.Const(1), graph.Var("x")),
			graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		},
	}
	for trial := 0; trial < 80; trial++ {
		queries = append(queries, testutil.RandomPattern(rng, g, 1+rng.Intn(3), 1+rng.Intn(3), 0.3, true))
	}
	for i, q := range queries {
		want := g.Evaluate(q, 0)
		res, err := Evaluate(idx, q, Options{})
		if err != nil {
			t.Fatalf("query %d %v: %v", i, q, err)
		}
		if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
			t.Fatalf("query %d %v: %s", i, q, diff)
		}
	}
}

func TestGroundPatterns(t *testing.T) {
	g := testutil.PaperGraph()
	idx := ringIndex(g, ring.Options{})

	// Satisfied ground pattern joined with a variable pattern: no effect.
	q := graph.Pattern{
		graph.TP(graph.Const(0), graph.Const(0), graph.Const(2)),
		graph.TP(graph.Const(5), graph.Const(2), graph.Var("y")),
	}
	res, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 4 {
		t.Errorf("got %d solutions, want 4 winners", len(res.Solutions))
	}

	// Unsatisfied ground pattern kills the query.
	q[0] = graph.TP(graph.Const(2), graph.Const(0), graph.Const(0))
	res, err = Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("unsatisfied ground pattern: got %d solutions, want 0", len(res.Solutions))
	}

	// All-ground query: one empty solution when satisfied.
	res, err = Evaluate(idx, graph.Pattern{graph.TP(graph.Const(0), graph.Const(0), graph.Const(2))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || len(res.Solutions[0]) != 0 {
		t.Errorf("all-ground satisfied query: %v", res.Solutions)
	}
}

func TestLimit(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(43)), 500, 20, 2)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	res, err := Evaluate(idx, q, Options{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 7 {
		t.Errorf("limit 7: got %d solutions", len(res.Solutions))
	}
}

func TestTimeout(t *testing.T) {
	// A heavily joined query over a dense graph with an absurdly small
	// timeout must stop early and report TimedOut.
	rng := rand.New(rand.NewSource(44))
	g := testutil.RandomGraph(rng, 5000, 40, 2)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("a"), graph.Var("p1"), graph.Var("b")),
		graph.TP(graph.Var("b"), graph.Var("p2"), graph.Var("c")),
		graph.TP(graph.Var("c"), graph.Var("p3"), graph.Var("d")),
	}
	res, err := Evaluate(idx, q, Options{Timeout: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skip("machine evaluated the query within a microsecond budget")
	}
}

func TestExplicitOrder(t *testing.T) {
	g := testutil.PaperGraph()
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("z"), graph.Const(0), graph.Var("y")),
	}
	want := g.Evaluate(q, 0)
	for _, order := range [][]string{
		{"x", "y", "z"}, {"z", "y", "x"}, {"y", "z", "x"}, {"y", "x", "z"},
	} {
		res, err := Evaluate(idx, q, Options{Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
			t.Fatalf("order %v: %s", order, diff)
		}
	}
	// Invalid orders error out.
	if _, err := Evaluate(idx, q, Options{Order: []string{"x", "y"}}); err == nil {
		t.Error("short explicit order accepted")
	}
	if _, err := Evaluate(idx, q, Options{Order: []string{"x", "y", "w"}}); err == nil {
		t.Error("unknown variable in explicit order accepted")
	}
}

func TestAllVariableOrdersAgree(t *testing.T) {
	// Property: the solution set is independent of the elimination order.
	rng := rand.New(rand.NewSource(45))
	g := testutil.RandomGraph(rng, 80, 12, 3)
	idx := ringIndex(g, ring.Options{})
	for trial := 0; trial < 30; trial++ {
		q := testutil.RandomPattern(rng, g, 2, 3, 0.3, false)
		vars := q.Vars()
		want := g.Evaluate(q, 0)
		perms := permutations(vars)
		for _, order := range perms {
			res, err := Evaluate(idx, q, Options{Order: order})
			if err != nil {
				t.Fatalf("query %v order %v: %v", q, order, err)
			}
			if diff := testutil.SameSolutions(res.Solutions, want, vars); diff != "" {
				t.Fatalf("query %v order %v: %s", q, order, diff)
			}
		}
	}
}

func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{append([]string(nil), xs...)}
	}
	var out [][]string
	for i := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}

func TestStreamEarlyStop(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(46)), 200, 20, 2)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	n := 0
	err := StreamSlots(idx, q, Options{}, &EvalStats{}, func([]string, []graph.ID) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("stream visited %d solutions, want 5", n)
	}
}

func TestEmptyQuery(t *testing.T) {
	g := testutil.PaperGraph()
	idx := ringIndex(g, ring.Options{})
	res, err := Evaluate(idx, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("empty query returned %d solutions", len(res.Solutions))
	}
}

func TestDisconnectedQuery(t *testing.T) {
	// Two patterns sharing no variables: a cross product.
	g := graph.New([]graph.Triple{
		{S: 0, P: 0, O: 1}, {S: 2, P: 1, O: 3}, {S: 4, P: 1, O: 5},
	})
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("a"), graph.Const(0), graph.Var("b")),
		graph.TP(graph.Var("c"), graph.Const(1), graph.Var("d")),
	}
	res, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Errorf("cross product returned %d solutions, want 2", len(res.Solutions))
	}
	want := g.Evaluate(q, 0)
	if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
		t.Error(diff)
	}
}

func TestTriangleQuery(t *testing.T) {
	// Classic wco case: triangles. Build a graph with known triangles.
	ts := []graph.Triple{}
	// Triangle 0-1-2 and 3-4-5 under predicate 0, plus noise.
	for _, tri := range [][3]graph.ID{{0, 1, 2}, {3, 4, 5}} {
		ts = append(ts,
			graph.Triple{S: tri[0], P: 0, O: tri[1]},
			graph.Triple{S: tri[1], P: 0, O: tri[2]},
			graph.Triple{S: tri[0], P: 0, O: tri[2]},
		)
	}
	ts = append(ts, graph.Triple{S: 6, P: 0, O: 7}, graph.Triple{S: 7, P: 0, O: 8})
	g := graph.New(ts)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Const(0), graph.Var("z")),
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("z")),
	}
	res, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Errorf("found %d triangles, want 2: %v", len(res.Solutions), res.Solutions)
	}
}

func TestEvalStatsCountOperations(t *testing.T) {
	g := testutil.PaperGraph()
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("z"), graph.Const(0), graph.Var("y")),
	}
	res, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Leaps == 0 || res.Stats.Binds == 0 || res.Stats.Seeks == 0 {
		t.Fatalf("stats not collected: %+v", res.Stats)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestLonelyOptimisationReducesLeaps(t *testing.T) {
	// A 4-leaf star: with the lonely fast path the leaves are enumerated,
	// without it each leaf value costs a leap. The paper's Section 4.2
	// claim, checked machine-independently via operation counts.
	rng := rand.New(rand.NewSource(47))
	g := testutil.RandomGraph(rng, 2000, 60, 3)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("c"), graph.Const(0), graph.Var("l1")),
		graph.TP(graph.Var("c"), graph.Const(1), graph.Var("l2")),
		graph.TP(graph.Var("c"), graph.Const(2), graph.Var("l3")),
	}
	on, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Evaluate(idx, q, Options{DisableLonely: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Solutions) != len(off.Solutions) {
		t.Fatalf("solutions differ: %d vs %d", len(on.Solutions), len(off.Solutions))
	}
	if len(on.Solutions) == 0 {
		t.Skip("star query had no solutions on this graph")
	}
	if on.Stats.Enumerations == 0 {
		t.Fatal("lonely fast path never used on a star query")
	}
	if on.Stats.Leaps >= off.Stats.Leaps {
		t.Errorf("lonely optimisation did not reduce leaps: %d with vs %d without",
			on.Stats.Leaps, off.Stats.Leaps)
	}
}
