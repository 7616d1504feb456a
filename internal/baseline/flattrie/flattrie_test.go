package flattrie

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/testutil"
)

func TestRandomQueriesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := testutil.RandomGraph(rng, 120, 15, 3)
	idx := New(g)
	for trial := 0; trial < 150; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(4), 1+rng.Intn(4), 0.4, true)
		want := g.Evaluate(q, 0)
		res, err := ltj.Evaluate(idx, q, ltj.Options{})
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
			t.Fatalf("query %v: %s", q, diff)
		}
	}
}

func TestPaperQuery(t *testing.T) {
	g := testutil.PaperGraph()
	idx := New(g)
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("z"), graph.Const(0), graph.Var("y")),
	}
	res, err := ltj.Evaluate(idx, q, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("paper query: got %d solutions, want 3", len(res.Solutions))
	}
}

func TestLeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := testutil.RandomGraph(rng, 80, 12, 3)
	idx := New(g)
	for trial := 0; trial < 200; trial++ {
		tr := g.Triples()[rng.Intn(g.Len())]
		it := idx.NewPatternIter(graph.TP(graph.Const(tr.S), graph.Var("p"), graph.Var("o")))
		c := graph.ID(rng.Intn(4))
		got, ok := it.Leap(graph.PosP, c)
		// Oracle.
		want, wok := graph.ID(0), false
		for _, u := range g.Triples() {
			if u.S == tr.S && u.P >= c && (!wok || u.P < want) {
				want, wok = u.P, true
			}
		}
		if ok != wok || (ok && got != want) {
			t.Fatalf("Leap(P,%d) with s=%d: got (%d,%v), want (%d,%v)", c, tr.S, got, ok, want, wok)
		}
	}
}

func TestSixOrdersSpace(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(53)), 1000, 100, 5)
	idx := New(g)
	// Six 12-byte copies: at least 72 bytes per triple.
	if bpt := float64(idx.SizeBytes()) / float64(g.Len()); bpt < 72 {
		t.Errorf("flat trie bytes/triple = %.1f, expected >= 72 (six copies)", bpt)
	}
}

func TestEnumerate(t *testing.T) {
	g := testutil.PaperGraph()
	idx := New(g)
	it := idx.NewPatternIter(graph.TP(graph.Const(5), graph.Const(1), graph.Var("o")))
	if !it.CanEnumerate(graph.PosO) {
		t.Fatal("cannot enumerate free object")
	}
	var got []graph.ID
	it.Enumerate(graph.PosO, func(c graph.ID) bool {
		got = append(got, c)
		return true
	})
	if len(got) != 5 { // Nobel nominated 5 entities
		t.Fatalf("enumerated %d objects, want 5: %v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("enumeration not strictly increasing")
		}
	}
}

func TestCannotEnumerateBoundPosition(t *testing.T) {
	g := testutil.PaperGraph()
	idx := New(g)
	it := idx.NewPatternIter(graph.TP(graph.Const(5), graph.Var("p"), graph.Var("o")))
	if it.CanEnumerate(graph.PosS) {
		t.Error("claimed to enumerate a bound position")
	}
}

// randomTriples draws n triples with subjects and objects below numSO and
// predicates below numP; small ranges make duplicates likely.
func randomTriples(rng *rand.Rand, n int, numSO, numP int) []graph.Triple {
	ts := make([]graph.Triple, n)
	for i := range ts {
		ts[i] = graph.Triple{S: graph.ID(rng.Intn(numSO)), P: graph.ID(rng.Intn(numP)), O: graph.ID(rng.Intn(numSO))}
	}
	return ts
}

// TestFromTriplesEqualsNew covers each branch of the single-coordinate
// sort (graph.SortBy): a key sort (values spread wide against the input
// size), one counting pass, and two 16-bit passes (a span above 2^16 but
// within four buckets per triple). Inputs carry duplicates, which must be
// dropped, and each of the six orders must equal a comparison sort of the
// distinct triples.
func TestFromTriplesEqualsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, c := range []struct{ n, numSO, numP int }{
		{0, 1, 1}, {1, 1, 1}, {200, 20, 3}, {300, 1 << 20, 40}, {5000, 3000, 16}, {20000, 70000, 5},
	} {
		ts := randomTriples(rng, c.n, c.numSO, c.numP)
		ts = append(ts, ts[:c.n/10]...) // duplicates, out of order
		got, want := FromTriples(ts), New(graph.New(ts))
		if !got.Equal(want) {
			t.Fatalf("n=%d numSO=%d: FromTriples differs from New over the same triples", c.n, c.numSO)
		}
		distinct := slices.Clone(ts)
		slices.SortFunc(distinct, cmps[0])
		distinct = slices.Compact(distinct)
		for i, cmp := range cmps {
			order := slices.Clone(distinct)
			slices.SortFunc(order, cmp)
			if !slices.Equal(got.orders[i], order) {
				t.Fatalf("n=%d numSO=%d: order %d differs from a comparison sort", c.n, c.numSO, i)
			}
		}
	}
}

// TestMergeAndWithoutEqualRebuild checks the copy-on-write updates against
// a fresh build over the same triple set, and that they leave their
// receivers as they were.
func TestMergeAndWithoutEqualRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	set := map[graph.Triple]bool{}
	idx := FromTriples(nil)
	for step := 0; step < 200; step++ {
		prev, before := idx, New(graph.New(idx.Triples()))
		if rng.Intn(3) > 0 {
			batch := randomTriples(rng, 1+rng.Intn(40), 25, 4)
			idx = idx.Merge(FromTriples(batch))
			for _, tr := range batch {
				set[tr] = true
			}
		} else {
			var drop []graph.Triple
			for tr := range set {
				if len(drop) >= 1+rng.Intn(5) {
					break
				}
				drop = append(drop, tr, tr) // a repeat must be harmless
				delete(set, tr)
			}
			drop = append(drop, graph.Triple{S: 99, P: 99, O: 99}) // absent
			idx = idx.Without(drop)
		}
		if !prev.Equal(before) {
			t.Fatalf("step %d: the update changed its receiver", step)
		}
		var want []graph.Triple
		for tr := range set {
			want = append(want, tr)
		}
		if !idx.Equal(New(graph.New(want))) {
			t.Fatalf("step %d: maintained index differs from a rebuild over %d triples", step, len(want))
		}
		for tr := range set {
			if !idx.Contains(tr) {
				t.Fatalf("step %d: Contains(%v) = false for an indexed triple", step, tr)
			}
		}
	}
}

// BenchmarkFromTriples sorts a write batch six ways: 250 triples (a live
// writer's batch, the key-sort branch of graph.SortBy) and 50,000 (a bulk
// load's chunk, the counting branch), over 100k subjects/objects and 16
// predicates.
func BenchmarkFromTriples(b *testing.B) {
	for _, n := range []int{250, 50_000} {
		ts := randomTriples(rand.New(rand.NewSource(56)), n, 100_000, 16)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkIdx = FromTriples(ts)
			}
		})
	}
}

var sinkIdx *Index
