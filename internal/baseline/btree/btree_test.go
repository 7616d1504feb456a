package btree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/testutil"
)

func TestTreeSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := testutil.RandomGraph(rng, 5000, 300, 8)
	tr := NewTree(g.Triples(), [3]graph.Position{graph.PosS, graph.PosP, graph.PosO})
	if tr.Len() != g.Len() {
		t.Fatalf("Len = %d, want %d", tr.Len(), g.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if !tr.At(i - 1).Less(tr.At(i)) {
			t.Fatalf("keys not strictly sorted at %d", i)
		}
	}
	// Round-trip through TripleAt must give back the graph.
	got := make([]graph.Triple, tr.Len())
	for i := range got {
		got[i] = tr.TripleAt(i)
	}
	got = graph.SortedSPO(got)
	if len(got) != g.Len() {
		t.Fatalf("%d distinct triples, want %d", len(got), g.Len())
	}
	want := g.Triples()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TripleAt round-trip mismatch at %d", i)
		}
	}
}

func TestLowerBoundAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := testutil.RandomGraph(rng, 3000, 100, 5)
	for _, order := range [][3]graph.Position{
		{graph.PosS, graph.PosP, graph.PosO},
		{graph.PosO, graph.PosP, graph.PosS},
	} {
		tr := NewTree(g.Triples(), order)
		for trial := 0; trial < 1000; trial++ {
			k := Key{graph.ID(rng.Intn(110)), graph.ID(rng.Intn(110)), graph.ID(rng.Intn(110))}
			got := tr.LowerBound(k)
			want := sort.Search(tr.Len(), func(i int) bool { return !tr.At(i).Less(k) })
			if got != want {
				t.Fatalf("LowerBound(%v) = %d, want %d", k, got, want)
			}
		}
		// Extremes.
		if got := tr.LowerBound(Key{}); got != 0 {
			t.Errorf("LowerBound(zero) = %d", got)
		}
		maxK := Key{^graph.ID(0), ^graph.ID(0), ^graph.ID(0)}
		if got := tr.LowerBound(maxK); got != tr.Len() && tr.At(got).Less(maxK) {
			t.Errorf("LowerBound(max) = %d of %d", got, tr.Len())
		}
	}
}

func TestPrefixRange(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := testutil.RandomGraph(rng, 2000, 50, 4)
	tr := NewTree(g.Triples(), [3]graph.Position{graph.PosP, graph.PosO, graph.PosS})
	for trial := 0; trial < 300; trial++ {
		p := graph.ID(rng.Intn(5))
		lo, hi := tr.PrefixRange([]graph.ID{p})
		cnt := 0
		for _, u := range g.Triples() {
			if u.P == p {
				cnt++
			}
		}
		if hi-lo != cnt {
			t.Fatalf("PrefixRange(p=%d) size = %d, want %d", p, hi-lo, cnt)
		}
		for i := lo; i < hi; i++ {
			if tr.At(i)[0] != p {
				t.Fatalf("PrefixRange content wrong at %d", i)
			}
		}
	}
	// Empty prefix covers everything.
	lo, hi := tr.PrefixRange(nil)
	if lo != 0 || hi != tr.Len() {
		t.Errorf("empty prefix = [%d,%d), want [0,%d)", lo, hi, tr.Len())
	}
}

func TestJenaAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := testutil.RandomGraph(rng, 120, 15, 3)
	j := NewJena(g)
	for trial := 0; trial < 120; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(4), 1+rng.Intn(4), 0.4, true)
		want := g.Evaluate(q, 0)
		res, err := j.Evaluate(q, ltj.Options{})
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
			t.Fatalf("query %v: %s", q, diff)
		}
	}
}

func TestJenaLimit(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(65)), 400, 30, 2)
	j := NewJena(g)
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	res, err := j.Evaluate(q, ltj.Options{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 5 {
		t.Errorf("limit 5: got %d", len(res.Solutions))
	}
}

func TestJenaSpaceIsThreeOrders(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(66)), 2000, 200, 5)
	j := NewJena(g)
	bpt := float64(j.SizeBytes()) / float64(g.Len())
	if bpt < 36 { // three 12-byte copies plus directories
		t.Errorf("Jena bytes/triple = %.1f, expected >= 36", bpt)
	}
}

func TestTreeSmall(t *testing.T) {
	// Trees smaller than one page must still work.
	ts := []graph.Triple{{S: 2, P: 0, O: 1}, {S: 1, P: 1, O: 0}}
	tr := NewTree(ts, [3]graph.Position{graph.PosS, graph.PosP, graph.PosO})
	if tr.Len() != 2 {
		t.Fatal("len")
	}
	if got := tr.LowerBound(Key{1, 0, 0}); got != 0 {
		t.Errorf("LowerBound = %d, want 0", got)
	}
	if got := tr.LowerBound(Key{2, 0, 0}); got != 1 {
		t.Errorf("LowerBound = %d, want 1", got)
	}
	empty := NewTree(nil, [3]graph.Position{graph.PosS, graph.PosP, graph.PosO})
	if empty.Len() != 0 || empty.LowerBound(Key{}) != 0 {
		t.Error("empty tree misbehaves")
	}
}
