package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline/flattrie"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/testutil"
)

func randomTriple(rng *rand.Rand) graph.Triple {
	return graph.Triple{
		S: graph.ID(rng.Intn(30)),
		P: graph.ID(rng.Intn(4)),
		O: graph.ID(rng.Intn(30)),
	}
}

func TestAddAndQueryMatchesStaticRing(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	s := New(Options{MemtableThreshold: 64, MaxRings: 3})
	var inserted []graph.Triple
	for i := 0; i < 1000; i++ {
		tr := randomTriple(rng)
		s.Add(tr)
		inserted = append(inserted, tr)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	g := graph.New(inserted)
	if s.Len() != g.Len() {
		t.Fatalf("Len = %d, want %d distinct", s.Len(), g.Len())
	}
	if s.Rings() > 3 {
		t.Fatalf("ring budget exceeded: %d rings", s.Rings())
	}

	// Queries over the dynamic store must match a static ring built from
	// the same triples.
	static := ring.New(g, ring.Options{})
	staticIdx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		return static.NewPatternState(tp)
	})
	for trial := 0; trial < 80; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(3), 1+rng.Intn(3), 0.4, false)
		want, err := ltj.Evaluate(staticIdx, q, ltj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Evaluate(q, ltj.Options{})
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if diff := testutil.SameSolutions(got.Solutions, want.Solutions, q.Vars()); diff != "" {
			t.Fatalf("query %v: %s", q, diff)
		}
	}
}

func TestDuplicateInsertsIgnored(t *testing.T) {
	s := New(Options{MemtableThreshold: 10})
	tr := graph.Triple{S: 1, P: 0, O: 2}
	s.Add(tr)
	s.Add(tr)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert", s.Len())
	}
	// Duplicate across the memtable/ring boundary.
	for i := 0; i < 20; i++ {
		s.Add(graph.Triple{S: graph.ID(i), P: 1, O: graph.ID(i)})
	}
	before := s.Len()
	s.Add(tr)
	if s.Len() != before {
		t.Fatal("duplicate of a flushed triple was counted")
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	s := New(Options{MemtableThreshold: 32, MaxRings: 2})
	set := map[graph.Triple]bool{}
	for i := 0; i < 300; i++ {
		tr := randomTriple(rng)
		s.Add(tr)
		set[tr] = true
	}
	// Delete half of them (some in the memtable, most in rings).
	removed := 0
	for tr := range set {
		if removed >= len(set)/2 {
			break
		}
		if !s.Delete(tr) {
			t.Fatalf("Delete(%v) failed for a present triple", tr)
		}
		delete(set, tr)
		removed++
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(set) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(set))
	}
	for tr := range set {
		if !s.Contains(tr) {
			t.Fatalf("remaining triple %v missing", tr)
		}
	}
	if s.Delete(graph.Triple{S: 99, P: 3, O: 99}) {
		t.Error("Delete of absent triple reported success")
	}
}

func TestCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	s := New(Options{MemtableThreshold: 16, MaxRings: 5})
	for i := 0; i < 200; i++ {
		s.Add(randomTriple(rng))
	}
	n := s.Len()
	s.Compact()
	if s.Rings() != 1 || s.MemtableLen() != 0 {
		t.Fatalf("after Compact: %d rings, %d buffered", s.Rings(), s.MemtableLen())
	}
	if s.Len() != n {
		t.Fatalf("Compact changed Len: %d -> %d", n, s.Len())
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFromGraph(t *testing.T) {
	g := testutil.PaperGraph()
	s := FromGraph(g, Options{})
	if s.Len() != g.Len() || s.Rings() != 1 {
		t.Fatalf("FromGraph: len %d rings %d", s.Len(), s.Rings())
	}
	// Add more data and query across the boundary.
	s.Add(graph.Triple{S: 0, P: 2, O: 5}) // Bohr win Nobel (nonsense but new)
	res, err := s.Evaluate(graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
	}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 5 { // 4 original winners + 1 new
		t.Fatalf("got %d win edges, want 5", len(res.Solutions))
	}
}

func TestLonelyEnumerationAcrossComponents(t *testing.T) {
	// A query whose lonely variable spans the memtable and a ring: the
	// union enumeration must merge and deduplicate.
	s := New(Options{MemtableThreshold: 4})
	s.AddBatch([]graph.Triple{
		{S: 1, P: 0, O: 2}, {S: 1, P: 0, O: 3}, {S: 1, P: 0, O: 4}, {S: 1, P: 0, O: 5},
	}) // flushes into a ring
	s.Add(graph.Triple{S: 1, P: 0, O: 6}) // stays in the memtable
	s.Add(graph.Triple{S: 1, P: 0, O: 2}) // duplicate of a ring triple
	res, err := s.Evaluate(graph.Pattern{
		graph.TP(graph.Const(1), graph.Const(0), graph.Var("o")),
	}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 5 {
		t.Fatalf("got %d objects, want 5 (deduplicated)", len(res.Solutions))
	}
}

func TestEmptyStore(t *testing.T) {
	s := New(Options{})
	res, err := s.Evaluate(graph.Pattern{
		graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("o")),
	}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Error("empty store yielded solutions")
	}
	if s.Delete(graph.Triple{}) {
		t.Error("Delete on empty store succeeded")
	}
}

func TestManyFlushesKeepRingBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	s := New(Options{MemtableThreshold: 8, MaxRings: 2})
	for i := 0; i < 400; i++ {
		s.Add(graph.Triple{
			S: graph.ID(rng.Intn(100)), P: graph.ID(rng.Intn(3)), O: graph.ID(rng.Intn(100)),
		})
		if s.Rings() > 2 {
			t.Fatalf("ring budget exceeded at step %d: %d rings", i, s.Rings())
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMemtableIndexMaintained drives a seeded insert/delete/flush/freeze/
// land/compact sequence and checks, after every step, that the snapshot's
// memtable and frozen indexes equal fresh flat-trie builds over the
// triples a model says they hold, and that queries agree with the naive
// evaluator. Batches carry duplicates and re-insert deleted triples. A
// freeze and its landing are the two halves of a background flush, run
// here on the writer's goroutine so every intermediate state is checked.
func TestMemtableIndexMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	s := New(Options{MemtableThreshold: 1 << 30, MaxRings: 3})
	mem, frozen, rings := map[graph.Triple]bool{}, map[graph.Triple]bool{}, map[graph.Triple]bool{}
	held := func(tr graph.Triple) bool { return mem[tr] || frozen[tr] || rings[tr] }
	var deleted []graph.Triple
	ran := map[string]int{}
	index := func(set map[graph.Triple]bool) *flattrie.Index {
		var ts []graph.Triple
		for tr := range set {
			ts = append(ts, tr)
		}
		return flattrie.New(graph.New(ts))
	}
	for step := 0; step < 300; step++ {
		op := "insert"
		switch r := rng.Intn(20); {
		case r < 4:
			op = "delete"
		case r == 4:
			op = "flush"
		case r == 5:
			op = "freeze"
		case r == 6:
			op = "land"
		case r == 7:
			op = "compact"
		}
		switch op {
		case "insert":
			var batch []graph.Triple
			for i := rng.Intn(12); i >= 0; i-- {
				tr := randomTriple(rng)
				if len(deleted) > 0 && rng.Intn(4) == 0 {
					tr = deleted[rng.Intn(len(deleted))]
				}
				batch = append(batch, tr, tr)
			}
			s.AddBatch(batch)
			for _, tr := range batch {
				if !held(tr) {
					mem[tr] = true
				}
			}
		case "delete":
			// A synchronous store has no compactor to land a frozen
			// chunk, so a delete that would wait for one is not issued.
			tr := randomTriple(rng)
			if frozen[tr] {
				continue
			}
			if got := s.Delete(tr); got != (mem[tr] || rings[tr]) {
				t.Fatalf("step %d: Delete(%v) = %v", step, tr, got)
			}
			if mem[tr] || rings[tr] {
				deleted = append(deleted, tr)
			}
			delete(mem, tr)
			delete(rings, tr)
		case "flush", "compact":
			if len(frozen) > 0 {
				continue
			}
			if op == "flush" {
				s.FlushNow()
			} else {
				s.Compact()
			}
			for tr := range mem {
				rings[tr] = true
			}
			mem = map[graph.Triple]bool{}
		case "freeze":
			if len(frozen) > 0 || len(mem) == 0 {
				continue
			}
			s.mu.Lock()
			s.freezeLocked()
			s.mu.Unlock()
			frozen, mem = mem, map[graph.Triple]bool{}
		case "land":
			if len(frozen) == 0 {
				continue
			}
			s.mu.Lock()
			s.landFrozenLocked(ring.New(graph.NewWithDomains(s.frozen.Triples(), s.numSO, s.numP), s.opt.Ring))
			s.mu.Unlock()
			for tr := range frozen {
				rings[tr] = true
			}
			frozen = map[graph.Triple]bool{}
		}
		ran[op]++

		snap := s.Snapshot()
		if !snap.mem.Equal(index(mem)) {
			t.Fatalf("step %d (%s): memtable index differs from a rebuild over its %d triples", step, op, len(mem))
		}
		if !snap.frozen.Equal(index(frozen)) {
			t.Fatalf("step %d (%s): frozen index differs from a rebuild over its %d triples", step, op, len(frozen))
		}
		if want := len(mem) + len(frozen) + len(rings); snap.Len() != want {
			t.Fatalf("step %d (%s): Len = %d, want %d", step, op, snap.Len(), want)
		}
		var all []graph.Triple
		for _, set := range []map[graph.Triple]bool{mem, frozen, rings} {
			for tr := range set {
				all = append(all, tr)
			}
		}
		if len(all) == 0 {
			continue
		}
		g := graph.New(all)
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(3), 1+rng.Intn(3), 0.4, false)
		res, err := snap.Evaluate(q, ltj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := testutil.SameSolutions(res.Solutions, g.Evaluate(q, 0), q.Vars()); diff != "" {
			t.Fatalf("step %d (%s): query %v: %s", step, op, q, diff)
		}
	}
	for _, op := range []string{"insert", "delete", "flush", "freeze", "land", "compact"} {
		if ran[op] == 0 {
			t.Errorf("the sequence never ran a %s", op)
		}
	}
	t.Logf("steps run: %v", ran)
}

// TestTriangleOnCompactedStoreBatches runs a triangle over a live store
// after Compact: every pattern then has one component, the ring, whose own
// iterator reaches the engine, so the batched lane runs and the answers
// equal the static ring's.
func TestTriangleOnCompactedStoreBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	g := testutil.RandomGraph(rng, 3000, 60, 2)
	s := New(Options{MemtableThreshold: 256, MaxRings: 3})
	ts := g.Triples()
	for i := 0; i < len(ts); i += 100 {
		s.AddBatch(ts[i:min(i+100, len(ts))])
	}
	s.Compact()
	x, y, z := graph.Var("x"), graph.Var("y"), graph.Var("z")
	q := graph.Pattern{
		graph.TP(x, graph.Const(0), y),
		graph.TP(y, graph.Const(0), z),
		graph.TP(z, graph.Const(0), x),
	}
	if _, ok := s.NewPatternIter(q[0]).(*ring.PatternState); !ok {
		t.Fatalf("a one-ring snapshot wraps the ring's iterator: %T", s.NewPatternIter(q[0]))
	}
	got, err := s.Evaluate(q, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	static := ring.New(g, ring.Options{})
	want, err := ltj.Evaluate(ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		return static.NewPatternState(tp)
	}), q, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Solutions) == 0 {
		t.Fatal("the graph has no triangle: the test checks nothing")
	}
	if diff := testutil.SameSolutions(got.Solutions, want.Solutions, q.Vars()); diff != "" {
		t.Fatal(diff)
	}
	if got.Stats.BatchDescents == 0 {
		t.Fatalf("no batched descents on a compacted store: %+v", got.Stats)
	}
}

// TestUnionEnumerateMergesLazily enumerates a position held by a
// memtable and two rings: the union visits each value once, in order, and
// stops at the first value visit declines.
func TestUnionEnumerateMergesLazily(t *testing.T) {
	s := New(Options{MemtableThreshold: 4, MaxRings: 4})
	s.AddBatch([]graph.Triple{{S: 1, P: 0, O: 2}, {S: 1, P: 0, O: 5}, {S: 1, P: 0, O: 9}, {S: 1, P: 0, O: 11}})
	s.AddBatch([]graph.Triple{{S: 1, P: 0, O: 3}, {S: 1, P: 0, O: 4}, {S: 1, P: 0, O: 7}, {S: 1, P: 0, O: 12}})
	s.AddBatch([]graph.Triple{{S: 1, P: 0, O: 1}, {S: 1, P: 0, O: 6}, {S: 2, P: 0, O: 9}})
	if s.Rings() != 2 || s.MemtableLen() != 3 {
		t.Fatalf("want 2 rings and 3 buffered triples, have %d and %d", s.Rings(), s.MemtableLen())
	}
	it := s.NewPatternIter(graph.TP(graph.Const(1), graph.Const(0), graph.Var("o")))
	if _, ok := it.(*unionIter); !ok {
		t.Fatalf("three non-empty components should form a union, got %T", it)
	}
	var all []graph.ID
	it.Enumerate(graph.PosO, func(c graph.ID) bool {
		all = append(all, c)
		return true
	})
	if want := []graph.ID{1, 2, 3, 4, 5, 6, 7, 9, 11, 12}; !slices.Equal(all, want) {
		t.Fatalf("enumerated %v, want %v", all, want)
	}
	for k := 1; k <= len(all); k++ {
		var got []graph.ID
		it.Enumerate(graph.PosO, func(c graph.ID) bool {
			got = append(got, c)
			return len(got) < k
		})
		if !slices.Equal(got, all[:k]) {
			t.Fatalf("stopping after %d values visited %v", k, got)
		}
	}
}
