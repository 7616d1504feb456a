package rdf3x

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/testutil"
)

func TestScanRangeRoundTrip(t *testing.T) {
	// Every order must decompress back to the full sorted triple list.
	rng := rand.New(rand.NewSource(81))
	g := testutil.RandomGraph(rng, 3000, 100, 6)
	idx := New(g)
	for _, o := range idx.orders {
		var got []graph.Triple
		o.scanRange(key{}, key{^graph.ID(0), ^graph.ID(0), ^graph.ID(0)}, func(k key) bool {
			got = append(got, k.toTriple(o.perm))
			return true
		})
		if len(got) != g.Len() {
			t.Fatalf("order %v: decompressed %d triples, want %d", o.perm, len(got), g.Len())
		}
		got = graph.SortedSPO(got)
		if len(got) != g.Len() {
			t.Fatalf("%d distinct triples, want %d", len(got), g.Len())
		}
		want := g.Triples()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v: triple %d mismatch: %v vs %v", o.perm, i, got[i], want[i])
			}
		}
	}
}

func TestScanRangeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := testutil.RandomGraph(rng, 2000, 60, 4)
	idx := New(g)
	o := idx.orders[0] // spo
	for trial := 0; trial < 200; trial++ {
		s := graph.ID(rng.Intn(60))
		lo := key{s, 0, 0}
		hi := key{s + 1, 0, 0}
		cnt := 0
		o.scanRange(lo, hi, func(k key) bool {
			if k[0] != s {
				t.Fatalf("scanRange leaked key %v outside s=%d", k, s)
			}
			cnt++
			return true
		})
		want := 0
		for _, u := range g.Triples() {
			if u.S == s {
				want++
			}
		}
		if cnt != want {
			t.Fatalf("scanRange(s=%d) visited %d, want %d", s, cnt, want)
		}
	}
}

func TestCompressionIsEffective(t *testing.T) {
	// A graph with heavy prefix sharing must compress well below 12 B/triple
	// per order.
	rng := rand.New(rand.NewSource(83))
	ts := make([]graph.Triple, 30000)
	for i := range ts {
		ts[i] = graph.Triple{
			S: graph.ID(rng.Intn(50)),
			P: graph.ID(rng.Intn(3)),
			O: graph.ID(rng.Intn(20000)),
		}
	}
	g := graph.New(ts)
	idx := New(g)
	bptPerOrder := float64(idx.SizeBytes()) / 6 / float64(g.Len())
	if bptPerOrder >= 12 {
		t.Errorf("compressed order uses %.2f B/triple, want < 12 (raw)", bptPerOrder)
	}
}

func TestEvaluateAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := testutil.RandomGraph(rng, 120, 15, 3)
	idx := New(g)
	for trial := 0; trial < 120; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(4), 1+rng.Intn(4), 0.4, true)
		want := g.Evaluate(q, 0)
		res, err := idx.Evaluate(q, ltj.Options{})
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if diff := testutil.SameSolutions(res.Solutions, want, q.Vars()); diff != "" {
			t.Fatalf("query %v: %s", q, diff)
		}
	}
}

func TestEvaluateLimit(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(85)), 500, 30, 2)
	idx := New(g)
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	res, err := idx.Evaluate(q, ltj.Options{Limit: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 9 {
		t.Errorf("limit 9: got %d", len(res.Solutions))
	}
}

func TestEmptyGraph(t *testing.T) {
	idx := New(graph.New(nil))
	res, err := idx.Evaluate(graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Error("empty graph yielded solutions")
	}
}
