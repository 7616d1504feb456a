package ltj_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/testutil"
	"repro/internal/wgpb"
)

// replayQueries is the query set of the replay tests over g: every WGPB
// shape, and cross products of independent lonely patterns — including a
// pattern with two lonely variables and one whose only bound positions
// are constants, whose enumeration depends on no variable at all.
func replayQueries(t *testing.T, g *graph.Graph) []graph.Pattern {
	t.Helper()
	w := wgpb.NewWorkload(g, 3)
	var qs []graph.Pattern
	for i := range wgpb.Shapes {
		shape := wgpb.Shapes[i].Name
		got := w.Queries(&wgpb.Shapes[i], 2)
		if len(got) == 0 {
			t.Fatalf("no %s instance on the test graph", shape)
		}
		qs = append(qs, got...)
	}
	// Anchors with a handful of objects each, so the products stay small.
	ts := g.Triples()
	var anchors []graph.Triple
	for _, tr := range ts {
		n := len(g.Evaluate(graph.Pattern{graph.TP(graph.Const(tr.S), graph.Const(tr.P), graph.Var("o"))}, 0))
		if n >= 2 && n <= 8 {
			anchors = append(anchors, tr)
			if len(anchors) == 3 {
				break
			}
		}
	}
	if len(anchors) < 3 {
		t.Fatalf("only %d anchors with 2–8 objects", len(anchors))
	}
	v, c := graph.Var, graph.Const
	a, b, d := anchors[0], anchors[1], anchors[2]
	return append(qs,
		// Two independent patterns of one lonely variable each.
		graph.Pattern{graph.TP(c(a.S), c(a.P), v("y")), graph.TP(c(b.S), c(b.P), v("z"))},
		// Three of them.
		graph.Pattern{graph.TP(c(a.S), c(a.P), v("y")), graph.TP(c(b.S), c(b.P), v("z")), graph.TP(c(d.S), c(d.P), v("w"))},
		// A join variable, a lonely object, and (x ?p ?o): two lonely
		// variables in one pattern.
		graph.Pattern{graph.TP(c(a.S), c(a.P), v("x")), graph.TP(v("x"), c(a.P), v("y")), graph.TP(v("x"), v("p"), v("o"))},
		// A star whose leaves are independent of each other, and a
		// constant-anchored pattern no variable binds.
		graph.Pattern{graph.TP(v("x"), c(a.P), v("y")), graph.TP(v("x"), c(b.P), v("z")), graph.TP(c(d.S), c(d.P), v("w"))},
	)
}

func replayGraph() *graph.Graph {
	return wgpb.Generate(wgpb.GraphConfig{Triples: 600, Nodes: 300, Predicates: 6, Seed: 4})
}

// TestLonelyReplaySequence checks that replaying recorded lonely
// enumerations changes nothing a caller sees: on every index family and
// at every Limit, Evaluate's solution sequence equals, element by element,
// the one of the DisableLonely run — same order, every lonely variable
// eliminated by the seek loop, nothing recorded. With two workers the
// order is free, so there the multisets are compared.
func TestLonelyReplaySequence(t *testing.T) {
	g := replayGraph()
	queries := replayQueries(t, g)
	for _, ix := range indexFamilies(t, g) {
		for qi, q := range queries {
			for _, limit := range []int{0, 1, 7, 1000} {
				want, err := ltj.Evaluate(ix.idx, q, ltj.Options{Limit: limit, DisableLonely: true})
				if err != nil {
					t.Fatal(err)
				}
				got, err := ltj.Evaluate(ix.idx, q, ltj.Options{Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Solutions, want.Solutions) {
					t.Fatalf("%s query %d %v limit %d: %d solutions differ from the unreplayed engine's %d (or their order does)",
						ix.name, qi, q, limit, len(got.Solutions), len(want.Solutions))
				}
				if limit == 0 && qi >= len(queries)-4 && got.Stats.Enumerations == 0 {
					t.Fatalf("%s query %d %v: the lonely lane never ran", ix.name, qi, q)
				}
				par, err := ltj.Evaluate(ix.idx, q, ltj.Options{Limit: limit, Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				if limit == 0 {
					if diff := testutil.SameSolutions(par.Solutions, want.Solutions, q.Vars()); diff != "" {
						t.Fatalf("%s query %d %v P=2: %s", ix.name, qi, q, diff)
					}
				} else if len(par.Solutions) != len(want.Solutions) {
					t.Fatalf("%s query %d %v limit %d P=2: %d solutions, want %d", ix.name, qi, q, limit, len(par.Solutions), len(want.Solutions))
				}
			}
		}
	}
}

// TestLonelyReplayEnumeratesOncePerBinding counts Enumerate calls per
// pattern: an independent lonely pattern is enumerated once per value of
// the deepest earlier variable it shares (once in all when it shares
// none), not once per value of the lonely variables ordered before it.
func TestLonelyReplayEnumeratesOncePerBinding(t *testing.T) {
	if ltj.RingdebugEnabled {
		t.Skip("ringdebug builds re-run every replayed enumeration to check it")
	}
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomGraph(rng, 1200, 30, 3)
	anchor := g.Triples()[0]
	v, c := graph.Var, graph.Const
	p1, p2 := graph.TP(v("x"), c(0), v("y")), graph.TP(v("x"), c(1), v("z"))
	p3 := graph.TP(c(anchor.S), c(anchor.P), v("w"))
	p4 := graph.TP(v("x"), v("p"), v("o"))
	// distinct counts the distinct projections of the solutions on vars.
	distinct := func(sols []graph.Binding, vars ...string) int64 {
		seen := map[[3]graph.ID]bool{}
		for _, b := range sols {
			var k [3]graph.ID
			for i, name := range vars {
				k[i] = b[name]
			}
			seen[k] = true
		}
		return int64(len(seen))
	}
	cases := []struct {
		name  string
		q     graph.Pattern
		order []string
		// want returns the expected Enumerate calls per pattern from the
		// solutions, and the calls an unreplayed engine would make on the
		// first replayed pattern (which must be more, or the case is vacuous).
		want func(sols []graph.Binding) (map[graph.TriplePattern]int64, int64)
	}{
		{"star: z replays per x", graph.Pattern{p1, p2}, []string{"x", "y", "z"}, func(s []graph.Binding) (map[graph.TriplePattern]int64, int64) {
			return map[graph.TriplePattern]int64{p1: distinct(s, "x"), p2: distinct(s, "x")}, distinct(s, "x", "y")
		}},
		{"independent pattern: w enumerated once", graph.Pattern{p1, p3}, []string{"x", "y", "w"}, func(s []graph.Binding) (map[graph.TriplePattern]int64, int64) {
			return map[graph.TriplePattern]int64{p1: 1 + distinct(s, "x"), p3: 1}, distinct(s, "x", "y")
		}},
		{"two lonely variables in one pattern", graph.Pattern{p1, p4}, []string{"x", "y", "o", "p"}, func(s []graph.Binding) (map[graph.TriplePattern]int64, int64) {
			// o replays per x; p depends on o, so it is enumerated under
			// every (x, y, o) as before.
			return map[graph.TriplePattern]int64{p1: distinct(s, "x"), p4: distinct(s, "x") + distinct(s, "x", "y", "o")}, distinct(s, "x", "y") + distinct(s, "x", "y", "o")
		}},
	}
	for _, ix := range indexFamilies(t, g) {
		for _, tc := range cases {
			var n bindCounts
			res, err := ltj.Evaluate(counting(ix.idx, tc.q, tc.order, &n), tc.q, ltj.Options{Order: tc.order})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Solutions) == 0 {
				t.Fatalf("%s / %s: no solutions — the case is vacuous", ix.name, tc.name)
			}
			want, unreplayed := tc.want(res.Solutions)
			for tp, w := range want {
				if got := n.enumerates[tp].Load(); got != w {
					t.Errorf("%s / %s: pattern %v enumerated %d times, want %d (unreplayed: %d)", ix.name, tc.name, tp, got, w, unreplayed)
				}
			}
			if first := want[tc.q[1]]; unreplayed <= first {
				t.Errorf("%s / %s: replay saves nothing here (%d vs %d enumerations) — the case is vacuous", ix.name, tc.name, first, unreplayed)
			}
		}
	}
}

// TestLonelyReplayCap runs an independent lonely pattern longer than the
// replay record holds: it is enumerated afresh under every outer value,
// and the solution sequence is still the unreplayed engine's.
func TestLonelyReplayCap(t *testing.T) {
	const long = 5000 // objects of the hub, beyond the 4096 values a record holds
	var ts []graph.Triple
	for o := graph.ID(0); o < long; o++ {
		ts = append(ts, graph.Triple{S: 0, P: 0, O: o})
	}
	for o := graph.ID(0); o < 3; o++ {
		ts = append(ts, graph.Triple{S: 1, P: 1, O: o})
	}
	g := graph.New(ts)
	v, c := graph.Var, graph.Const
	outer, hub := graph.TP(c(1), c(1), v("y")), graph.TP(c(0), c(0), v("z"))
	q := graph.Pattern{outer, hub}
	order := []string{"y", "z"}
	for _, ix := range indexFamilies(t, g) {
		var n bindCounts
		got, err := ltj.Evaluate(counting(ix.idx, q, order, &n), q, ltj.Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ltj.Evaluate(ix.idx, q, ltj.Options{Order: order, DisableLonely: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Solutions) != 3*long || !reflect.DeepEqual(got.Solutions, want.Solutions) {
			t.Fatalf("%s: %d solutions, unreplayed %d (or another order)", ix.name, len(got.Solutions), len(want.Solutions))
		}
		if e := n.enumerates[hub].Load(); !ltj.RingdebugEnabled && e != 3 {
			t.Errorf("%s: the hub pattern was enumerated %d times, want once per outer value (3)", ix.name, e)
		}
	}
}
