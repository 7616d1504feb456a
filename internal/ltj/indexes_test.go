package ltj_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline/btreeltj"
	"repro/internal/baseline/flattrie"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/testutil"
)

type namedIndex struct {
	name string
	idx  ltj.Index
}

// indexFamilies opens every index kind the engine runs on over g: the
// ring, the C-Ring, the flat tries, the B+-tree orders, and a dynamic
// snapshot that is a union of a memtable and two rings.
func indexFamilies(t *testing.T, g *graph.Graph) []namedIndex {
	t.Helper()
	ts := g.Triples()
	third := len(ts) / 3
	st := dynamic.FromGraph(graph.NewWithDomains(ts[:third], g.NumSO(), g.NumP()), dynamic.Options{})
	t.Cleanup(st.Close)
	st.AddBatch(ts[third : 2*third])
	st.FlushNow()             // the second ring
	st.AddBatch(ts[2*third:]) // stays in the memtable
	snap := st.Snapshot()
	if snap.MemtableLen() == 0 || len(snap.Rings()) < 2 {
		t.Fatalf("dynamic snapshot is not a union of a memtable and ≥2 rings: %d buffered, %d rings", snap.MemtableLen(), len(snap.Rings()))
	}
	plain, compressed := ring.New(g, ring.Options{}), ring.New(g, ring.Options{Compress: true, RRRBlock: 16})
	return []namedIndex{
		{"ring", ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return plain.NewPatternState(tp) })},
		{"c-ring", ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return compressed.NewPatternState(tp) })},
		{"flattrie", flattrie.New(g)},
		{"btreeltj", btreeltj.New(g)},
		{"dynamic", ltj.IndexFunc(snap.NewPatternIter)},
	}
}

// TestParallelMatchesSequential is the engine-level differential test:
// for random patterns of every shape, on every index kind, the parallel
// evaluation — whose workers open their own iterators from the index —
// must produce exactly the sequential multiset at every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := testutil.RandomGraph(rng, 150, 18, 3)
	indexes := indexFamilies(t, g)
	for trial := 0; trial < 60; trial++ {
		nt := 1 + rng.Intn(4)
		nv := 1 + rng.Intn(4)
		q := testutil.RandomPattern(rng, g, nt, nv, 0.3, false)
		for _, ix := range indexes {
			seq, err := ltj.Evaluate(ix.idx, q, ltj.Options{})
			if err != nil {
				t.Fatalf("%s trial %d sequential %v: %v", ix.name, trial, q, err)
			}
			for _, p := range []int{2, 4, 8} {
				par, err := ltj.Evaluate(ix.idx, q, ltj.Options{Parallelism: p})
				if err != nil {
					t.Fatalf("%s trial %d P=%d %v: %v", ix.name, trial, p, q, err)
				}
				if diff := testutil.SameSolutions(par.Solutions, seq.Solutions, q.Vars()); diff != "" {
					t.Fatalf("%s trial %d P=%d query %v: %s", ix.name, trial, p, q, diff)
				}
			}
		}
	}
}
