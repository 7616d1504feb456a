package query

import (
	"testing"

	"repro/internal/graph"
)

func TestCacheKeyPatternOrderInsensitive(t *testing.T) {
	p1 := graph.TP(graph.Var("x"), graph.Const(1), graph.Var("y"))
	p2 := graph.TP(graph.Var("y"), graph.Const(2), graph.Var("z"))
	a := Select{Pattern: graph.Pattern{p1, p2}}.CacheKey()
	b := Select{Pattern: graph.Pattern{p2, p1}}.CacheKey()
	if a != b {
		t.Fatalf("pattern order changed the key: %q vs %q", a, b)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := Select{Pattern: graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("y")),
	}}
	key := Select.CacheKey
	k0 := key(base)

	vary := map[string]Select{}
	s := base
	s.Pattern = graph.Pattern{graph.TP(graph.Var("a"), graph.Const(1), graph.Var("y"))}
	vary["variable name"] = s
	s = base
	s.Pattern = graph.Pattern{graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y"))}
	vary["constant"] = s
	s = base
	s.Project = []string{"x"}
	vary["projection"] = s
	s = base
	s.Distinct = true
	vary["distinct"] = s
	s = base
	s.OrderBy = []string{"y"}
	vary["order by"] = s
	s = base
	s.Offset = 3
	vary["offset"] = s
	s = base
	s.Limit = 7
	vary["limit"] = s

	for what, sel := range vary {
		if key(sel) == k0 {
			t.Errorf("changing %s did not change the key", what)
		}
	}

	// Execution knobs must NOT change the key.
	s = base
	s.Parallelism = 8
	if key(s) != k0 {
		t.Error("parallelism changed the key")
	}
}
