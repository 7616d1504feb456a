package ring

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
	"repro/internal/wavelet"
)

// leapfrogJoin is the scalar oracle for the batched join: the classic
// round-robin leapfrog over the states' Leap operations.
func leapfrogJoin(states []*PatternState, positions []graph.Position) []graph.ID {
	var out []graph.ID
	c := graph.ID(0)
outer:
	for {
		for i := range states {
			v, ok := states[i].Leap(positions[i], c)
			if !ok {
				return out
			}
			if v != c {
				c = v
				continue outer
			}
		}
		out = append(out, c)
		if c == graph.MaxID {
			return out
		}
		c++
	}
}

// leapRuns collects each state's LeapRun for its position: the ranges the
// engine's batched lane hands to wavelet.IntersectRanges.
func leapRuns(states []*PatternState, positions []graph.Position) ([]wavelet.MatrixRange, bool) {
	rs := make([]wavelet.MatrixRange, len(states))
	for i, ps := range states {
		r, ok := ps.LeapRun(positions[i])
		if !ok {
			return nil, false
		}
		rs[i] = r
	}
	return rs, true
}

func batchTestRings(t testing.TB) (*graph.Graph, []*Ring) {
	rng := rand.New(rand.NewSource(71))
	g := testutil.RandomGraph(rng, 6000, 900, 5)
	return g, []*Ring{
		New(g, Options{}),
		New(g, Options{Compress: true, RRRBlock: 16}),
	}
}

func TestLeapRunDirections(t *testing.T) {
	g, rings := batchTestRings(t)
	s0 := g.Triples()[0].S
	for _, r := range rings {
		// Nothing bound: no run.
		free := r.NewPatternState(graph.TP(graph.Var("s"), graph.Var("p"), graph.Var("o")))
		if _, ok := free.LeapRun(graph.PosS); ok {
			t.Fatal("LeapRun on an unbound pattern should not apply")
		}
		// One constant: backward position has a run, forward does not.
		ps := r.NewPatternState(graph.TP(graph.Const(s0), graph.Var("p"), graph.Var("o")))
		mr, ok := ps.LeapRun(graph.PosO)
		if !ok || mr.Hi <= mr.Lo || mr.M == nil {
			t.Fatalf("LeapRun(PosO) = %+v, %v; want a non-empty backward run", mr, ok)
		}
		if _, ok := ps.LeapRun(graph.PosP); ok {
			t.Fatal("LeapRun(PosP) is the forward direction and should not apply")
		}
		// Fully bound: nothing to leap.
		t0 := g.Triples()[0]
		full := r.NewPatternState(graph.TP(graph.Const(t0.S), graph.Const(t0.P), graph.Const(t0.O)))
		if _, ok := full.LeapRun(graph.PosO); ok {
			t.Fatal("LeapRun on a fully bound pattern should not apply")
		}
	}
}

func TestBatchLeapMatchesScalar(t *testing.T) {
	g, rings := batchTestRings(t)
	rng := rand.New(rand.NewSource(72))
	ts := g.Triples()
	for _, r := range rings {
		for trial := 0; trial < 60; trial++ {
			tr := ts[rng.Intn(len(ts))]
			// Backward direction (batched descent) and forward direction
			// (scalar fallback inside BatchLeap).
			cases := []struct {
				ps  *PatternState
				pos graph.Position
			}{
				{r.NewPatternState(graph.TP(graph.Const(tr.S), graph.Var("p"), graph.Var("o"))), graph.PosO},
				{r.NewPatternState(graph.TP(graph.Const(tr.S), graph.Var("p"), graph.Var("o"))), graph.PosP},
				{r.NewPatternState(graph.TP(graph.Const(tr.S), graph.Const(tr.P), graph.Var("o"))), graph.PosO},
			}
			for _, tc := range cases {
				c := graph.ID(rng.Intn(1000))
				max := rng.Intn(12) + 1
				got := tc.ps.BatchLeap(tc.pos, c, make([]graph.ID, 0, max))
				want := make([]graph.ID, 0, max)
				cc := c
				for len(want) < max {
					v, ok := tc.ps.Leap(tc.pos, cc)
					if !ok {
						break
					}
					want = append(want, v)
					if v == graph.MaxID {
						break
					}
					cc = v + 1
				}
				if len(got) != len(want) {
					t.Fatalf("BatchLeap(%v, %d) cap %d: got %v want %v", tc.pos, c, max, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("BatchLeap(%v, %d) cap %d: got %v want %v", tc.pos, c, max, got, want)
					}
				}
			}
		}
	}
}

func TestEnumerateJoinMatchesLeapfrog(t *testing.T) {
	g, rings := batchTestRings(t)
	rng := rand.New(rand.NewSource(73))
	ts := g.Triples()
	for _, r := range rings {
		for trial := 0; trial < 40; trial++ {
			k := rng.Intn(3) + 2
			states := make([]*PatternState, k)
			positions := make([]graph.Position, k)
			for i := 0; i < k; i++ {
				tr := ts[rng.Intn(len(ts))]
				if i%2 == 0 {
					// Join variable as object: (s, ?p, ?v) over the SPO column.
					states[i] = r.NewPatternState(graph.TP(graph.Const(tr.S), graph.Var("p"), graph.Var("v")))
					positions[i] = graph.PosO
				} else {
					// Join variable as subject: (?v, p, ?o) over the POS column.
					states[i] = r.NewPatternState(graph.TP(graph.Var("v"), graph.Const(tr.P), graph.Var("o")))
					positions[i] = graph.PosS
				}
			}
			rs, ok := leapRuns(states, positions)
			if !ok {
				t.Fatalf("LeapRun unexpectedly unsupported (trial %d)", trial)
			}
			var got []graph.ID
			wavelet.IntersectRanges(rs, func(v uint64) bool {
				got = append(got, graph.ID(v))
				return true
			})
			want := leapfrogJoin(states, positions)
			if len(got) != len(want) {
				t.Fatalf("IntersectRanges: got %d values, leapfrog %d (k=%d)", len(got), len(want), k)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("IntersectRanges[%d] = %d, leapfrog %d", i, got[i], want[i])
				}
			}
		}
	}
}

// TestEnumerateJoinFallbacks pins the two conditions under which the
// engine's batched lane must fall back to leapfrogging: a forward
// direction has no LeapRun, and a predicate column and a subject column
// have different widths, so they cannot be carried down one descent.
func TestEnumerateJoinFallbacks(t *testing.T) {
	g, rings := batchTestRings(t)
	t0 := g.Triples()[0]
	r := rings[0]
	// The OSP column codes predicates (σ = numP = 5, 3 levels) while the
	// POS column codes subjects (σ = numSO = 900, 10 levels).
	bst := r.NewPatternState(graph.TP(graph.Var("v"), graph.Const(t0.P), graph.Var("o")))
	subj, ok := bst.LeapRun(graph.PosS)
	if !ok {
		t.Fatal("subject LeapRun over the POS column should apply")
	}
	c := r.NewPatternState(graph.TP(graph.Var("s"), graph.Var("v"), graph.Const(t0.O))) // run = O, backward = ?v (predicate, OSP column)
	pred, ok := c.LeapRun(graph.PosP)
	if !ok {
		t.Skipf("predicate LeapRun unsupported: %+v", pred)
	}
	if pred.M.Width() == subj.M.Width() {
		t.Fatalf("predicate and subject columns share width %d; the lane's width check could not tell them apart", pred.M.Width())
	}
	fwd := r.NewPatternState(graph.TP(graph.Const(t0.S), graph.Var("p"), graph.Var("o")))
	if _, ok := fwd.LeapRun(graph.PosP); ok {
		t.Fatal("LeapRun should decline a forward-direction position")
	}
}
