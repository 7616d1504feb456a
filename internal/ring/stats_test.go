package ring

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

func TestStatsPaperGraph(t *testing.T) {
	r := New(testutil.PaperGraph(), Options{})
	st := r.Stats()
	if st.Triples != 13 {
		t.Errorf("Triples = %d, want 13", st.Triples)
	}
	// Subjects: Bohr, Thomson, Wheeler, Thorne, Nobel = 5.
	if st.DistinctSubjects != 5 {
		t.Errorf("DistinctSubjects = %d, want 5", st.DistinctSubjects)
	}
	if st.DistinctPredicates != 3 {
		t.Errorf("DistinctPredicates = %d, want 3", st.DistinctPredicates)
	}
	// Objects: everyone except Nobel = 5.
	if st.DistinctObjects != 5 {
		t.Errorf("DistinctObjects = %d, want 5", st.DistinctObjects)
	}
}

func TestStatsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	g := testutil.RandomGraph(rng, 400, 50, 6)
	r := New(g, Options{})
	st := r.Stats()
	subj, pred, obj := map[graph.ID]bool{}, map[graph.ID]bool{}, map[graph.ID]bool{}
	degS, degO, degP := map[graph.ID]int{}, map[graph.ID]int{}, map[graph.ID]int{}
	for _, tr := range g.Triples() {
		subj[tr.S], pred[tr.P], obj[tr.O] = true, true, true
		degS[tr.S]++
		degO[tr.O]++
		degP[tr.P]++
	}
	if st.DistinctSubjects != len(subj) || st.DistinctPredicates != len(pred) || st.DistinctObjects != len(obj) {
		t.Fatalf("Stats = %+v, want (%d,%d,%d)", st, len(subj), len(pred), len(obj))
	}
	for s := graph.ID(0); s < 50; s++ {
		if lo, hi := r.CRange(ZoneSPO, s); hi-lo != degS[s] {
			t.Fatalf("out-degree of %d = %d, want %d", s, hi-lo, degS[s])
		}
		if lo, hi := r.CRange(ZoneOSP, s); hi-lo != degO[s] {
			t.Fatalf("in-degree of %d = %d, want %d", s, hi-lo, degO[s])
		}
	}
	for p := graph.ID(0); p < 6; p++ {
		if got := r.PredicateCount(p); got != degP[p] {
			t.Fatalf("PredicateCount(%d) = %d, want %d", p, got, degP[p])
		}
	}
}

func TestPatternCount(t *testing.T) {
	r := New(testutil.PaperGraph(), Options{})
	if got := r.PatternCount(graph.TP(graph.Const(5), graph.Var("p"), graph.Var("o"))); got != 9 {
		t.Errorf("PatternCount(Nobel,?,?) = %d, want 9", got)
	}
	if got := r.PatternCount(graph.TP(graph.Const(5), graph.Const(2), graph.Var("o"))); got != 4 {
		t.Errorf("PatternCount(Nobel,win,?) = %d, want 4", got)
	}
}

func TestTopPredicates(t *testing.T) {
	r := New(testutil.PaperGraph(), Options{})
	top := r.TopPredicates(2)
	// nom (1) has 5; adv (0) and win (2) have 4 each (ties by id: adv).
	if len(top) != 2 || top[0].P != 1 || top[0].Count != 5 {
		t.Fatalf("TopPredicates = %+v", top)
	}
	if top[1].P != 0 || top[1].Count != 4 {
		t.Fatalf("TopPredicates[1] = %+v", top[1])
	}
	// Asking for more than exist returns all.
	if got := r.TopPredicates(10); len(got) != 3 {
		t.Fatalf("TopPredicates(10) returned %d", len(got))
	}
}

func TestStatsEmptyRing(t *testing.T) {
	r := New(graph.New(nil), Options{})
	st := r.Stats()
	if st.Triples != 0 || st.DistinctSubjects != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	if len(r.TopPredicates(3)) != 0 {
		t.Error("empty ring has top predicates")
	}
}
