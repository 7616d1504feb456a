package query

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/testutil"
)

func ringIndex(g *graph.Graph) ltj.Index {
	r := ring.New(g, ring.Options{})
	return ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		return r.NewPatternState(tp)
	})
}

func triangleGraph() *graph.Graph {
	// Two triangles plus a chain; all edges predicate 0.
	return graph.New([]graph.Triple{
		{S: 0, P: 0, O: 1}, {S: 1, P: 0, O: 2}, {S: 0, P: 0, O: 2},
		{S: 3, P: 0, O: 4}, {S: 4, P: 0, O: 5}, {S: 3, P: 0, O: 5},
		{S: 6, P: 0, O: 7},
	})
}

func trianglePattern() graph.Pattern {
	return graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Const(0), graph.Var("z")),
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("z")),
	}
}

func TestProjection(t *testing.T) {
	idx := ringIndex(triangleGraph())
	res, err := Select{Pattern: trianglePattern(), Project: []string{"x"}}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d rows, want 2", len(res))
	}
	for _, b := range res {
		if len(b) != 1 {
			t.Fatalf("row has %d columns, want 1: %v", len(b), b)
		}
		if _, ok := b["x"]; !ok {
			t.Fatalf("row missing projected variable: %v", b)
		}
	}
}

func TestProjectionUnknownVariable(t *testing.T) {
	idx := ringIndex(triangleGraph())
	if _, err := (Select{Pattern: trianglePattern(), Project: []string{"nope"}}).Run(idx); err == nil {
		t.Error("unknown projected variable accepted")
	}
	if _, err := (Select{Pattern: trianglePattern(), OrderBy: []string{"nope"}}).Run(idx); err == nil {
		t.Error("unknown order-by variable accepted")
	}
	if _, err := (Select{Pattern: trianglePattern(), Offset: -1}).Run(idx); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestDistinct(t *testing.T) {
	// Project the triangle pattern to x: without DISTINCT one row per
	// triangle, with DISTINCT one row per distinct x (same here), but
	// projecting a star pattern to its centre shows the difference.
	g := graph.New([]graph.Triple{
		{S: 0, P: 0, O: 1}, {S: 0, P: 0, O: 2}, {S: 0, P: 0, O: 3},
	})
	idx := ringIndex(g)
	q := graph.Pattern{graph.TP(graph.Var("c"), graph.Const(0), graph.Var("leaf"))}
	plain, err := Select{Pattern: q, Project: []string{"c"}}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 3 {
		t.Fatalf("without distinct: %d rows, want 3", len(plain))
	}
	dist, err := Select{Pattern: q, Project: []string{"c"}, Distinct: true}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 {
		t.Fatalf("with distinct: %d rows, want 1", len(dist))
	}
}

func TestOrderByOffsetLimit(t *testing.T) {
	g := graph.New([]graph.Triple{
		{S: 5, P: 0, O: 9}, {S: 3, P: 0, O: 9}, {S: 8, P: 0, O: 9}, {S: 1, P: 0, O: 9},
	})
	idx := ringIndex(g)
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Const(0), graph.Const(9))}
	res, err := Select{Pattern: q, OrderBy: []string{"x"}}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	var xs []graph.ID
	for _, b := range res {
		xs = append(xs, b["x"])
	}
	if !reflect.DeepEqual(xs, []graph.ID{1, 3, 5, 8}) {
		t.Fatalf("ordered = %v", xs)
	}
	// Offset + limit window.
	res, err = Select{Pattern: q, OrderBy: []string{"x"}, Offset: 1, Limit: 2}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0]["x"] != 3 || res[1]["x"] != 5 {
		t.Fatalf("window = %v", res)
	}
	// Offset beyond the result set.
	res, err = Select{Pattern: q, Offset: 10}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("oversized offset returned %d rows", len(res))
	}
}

func TestStreamingLimitStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	g := testutil.RandomGraph(rng, 2000, 50, 2)
	idx := ringIndex(g)
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	res, err := Select{Pattern: q, Limit: 5}.Run(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("limit 5: got %d", len(res))
	}
}
