package ltj_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/testutil"
	"repro/internal/trieiter"
	"repro/internal/wavelet"
)

// bindCounts is what the counting iterators observe of one evaluation.
// Atomic because parallel workers bind on their own iterators.
type bindCounts struct {
	binds, unbinds atomic.Int64
	deadBinds      atomic.Int64                          // binds of a pattern no deeper variable reads
	enumerates     map[graph.TriplePattern]*atomic.Int64 // Enumerate calls per pattern of the query
}

// countingIter counts the Bind, Unbind and Enumerate calls the engine
// issues on one pattern's iterator and forwards everything.
type countingIter struct {
	trieiter.Iter
	n          *bindCounts
	dead       [3]bool // positions holding the pattern's deepest variable in the order
	enumerates *atomic.Int64
}

func (it *countingIter) Bind(pos graph.Position, c graph.ID) {
	it.n.binds.Add(1)
	if it.dead[pos] {
		it.n.deadBinds.Add(1)
	}
	it.Iter.Bind(pos, c)
}

func (it *countingIter) Unbind() {
	it.n.unbinds.Add(1)
	it.Iter.Unbind()
}

func (it *countingIter) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	it.enumerates.Add(1)
	it.Iter.Enumerate(pos, visit)
}

// countingRunLeaper keeps the batched lane reachable through the wrapper.
type countingRunLeaper struct{ *countingIter }

func (it countingRunLeaper) LeapRun(pos graph.Position) (wavelet.MatrixRange, bool) {
	return it.Iter.(trieiter.RunLeaper).LeapRun(pos)
}

// counting wraps every iterator idx hands out for the patterns of q,
// evaluated in the given order. Parallel workers open their iterators
// through the index too, so theirs are counted as well. A bind at a
// position holding its pattern's deepest variable is dead: no deeper
// variable reads the range it narrows.
func counting(idx ltj.Index, q graph.Pattern, order []string, n *bindCounts) ltj.Index {
	depth := map[string]int{}
	for j, name := range order {
		depth[name] = j
	}
	n.enumerates = map[graph.TriplePattern]*atomic.Int64{}
	for _, tp := range q {
		n.enumerates[tp] = new(atomic.Int64)
	}
	return ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		it := &countingIter{Iter: idx.NewPatternIter(tp), n: n, enumerates: n.enumerates[tp]}
		deepest := -1
		for _, name := range tp.Vars() {
			deepest = max(deepest, depth[name])
		}
		for pos := graph.PosS; pos <= graph.PosO; pos++ {
			if t := tp.Term(pos); t.IsVar && depth[t.Name] == deepest {
				it.dead[pos] = true
			}
		}
		if _, ok := it.Iter.(trieiter.RunLeaper); ok {
			return countingRunLeaper{it}
		}
		return it
	})
}

// TestLastVariableBindElision runs every index family behind counting
// iterators and checks, on every way an evaluation can end, that (a) every
// Bind hits a pattern a deeper variable reads — so the last variable of
// the order is never bound — (b) every Bind is undone by the time the
// engine returns, and (c) EvalStats.Binds is the number of Bind calls the
// iterators saw. ringdebug builds perform the elided binds to assert
// them, so there only (b) is checked.
func TestLastVariableBindElision(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomGraph(rng, 1200, 30, 3)
	ts := g.Triples()
	indexes := indexFamilies(t, g)

	v, c := graph.Var, graph.Const
	queries := []struct {
		name    string
		q       graph.Pattern
		order   []string
		repeats bool // leapVar's verification binds are not in EvalStats.Binds
	}{
		{"star, lonely last", graph.Pattern{graph.TP(v("x"), c(0), v("y")), graph.TP(v("x"), c(1), v("z"))}, []string{"x", "y", "z"}, false},
		{"triangle, join last", graph.Pattern{graph.TP(v("x"), c(0), v("y")), graph.TP(v("y"), c(1), v("z")), graph.TP(v("z"), c(2), v("x"))}, []string{"x", "y", "z"}, false},
		{"parallel edges, join last", graph.Pattern{graph.TP(v("x"), c(0), v("y")), graph.TP(v("x"), c(1), v("y"))}, []string{"x", "y"}, false},
		{"variable predicate last", graph.Pattern{graph.TP(v("x"), v("p"), v("y")), graph.TP(v("y"), c(0), v("z"))}, []string{"y", "z", "x", "p"}, false},
		{"one variable", graph.Pattern{graph.TP(c(ts[0].S), c(ts[0].P), v("y"))}, []string{"y"}, false},
		{"self loop", graph.Pattern{graph.TP(v("x"), v("p"), v("x")), graph.TP(v("x"), c(1), v("y"))}, []string{"x", "p", "y"}, true},
		{"star, independent lonely leaves", graph.Pattern{graph.TP(v("x"), c(0), v("y")), graph.TP(v("x"), c(1), v("z")), graph.TP(v("x"), c(2), v("w"))}, []string{"x", "y", "z", "w"}, false},
		{"two lonely variables in one pattern", graph.Pattern{graph.TP(v("x"), c(0), v("y")), graph.TP(v("x"), v("p"), v("o"))}, []string{"x", "y", "o", "p"}, false},
		{"constant-anchored lonely pattern", graph.Pattern{graph.TP(v("x"), c(0), v("y")), graph.TP(c(ts[0].S), c(ts[0].P), v("w"))}, []string{"x", "y", "w"}, false},
	}

	// Each exit returns the stats of a run that ended its own way.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	evaluate := func(opt ltj.Options) func(*testing.T, ltj.Index, graph.Pattern, []string) ltj.EvalStats {
		return func(t *testing.T, idx ltj.Index, q graph.Pattern, order []string) ltj.EvalStats {
			opt := opt
			opt.Order = order
			res, err := ltj.Evaluate(idx, q, opt)
			if err != nil && opt.Context == nil {
				t.Fatal(err)
			}
			return res.Stats
		}
	}
	exits := []struct {
		name string
		run  func(*testing.T, ltj.Index, graph.Pattern, []string) ltj.EvalStats
	}{
		{"exhaustion", evaluate(ltj.Options{})},
		{"scalar exhaustion", evaluate(ltj.Options{DisableBatch: true, DisableLonely: true})},
		{"limit", evaluate(ltj.Options{Limit: 7})},
		{"timeout", evaluate(ltj.Options{Timeout: time.Nanosecond})},
		{"cancelled context", evaluate(ltj.Options{Context: cancelled})},
		{"parallel exhaustion", evaluate(ltj.Options{Parallelism: 2})},
		{"parallel limit", evaluate(ltj.Options{Parallelism: 2, Limit: 7})},
		{"emit returns false", func(t *testing.T, idx ltj.Index, q graph.Pattern, order []string) ltj.EvalStats {
			var stats ltj.EvalStats
			n := 0
			if err := ltj.StreamSlots(idx, q, ltj.Options{Order: order}, &stats, func([]string, []graph.ID) bool {
				n++
				return n < 5
			}); err != nil {
				t.Fatal(err)
			}
			return stats
		}},
		{"context cancelled mid-run", func(t *testing.T, idx ltj.Index, q graph.Pattern, order []string) ltj.EvalStats {
			var stats ltj.EvalStats
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			n := 0
			_ = ltj.StreamSlots(idx, q, ltj.Options{Order: order, Context: ctx}, &stats, func([]string, []graph.ID) bool {
				if n++; n == 5 {
					cancel()
				}
				return true
			}) // ErrCancelled, or nil when the run is shorter than a polling interval
			return stats
		}},
	}

	for _, qc := range queries {
		want := len(g.Evaluate(qc.q, 0))
		if want == 0 {
			t.Fatalf("%s: no solutions on the test graph — the case is vacuous", qc.name)
		}
		for _, ix := range indexes {
			for _, ex := range exits {
				var n bindCounts
				stats := ex.run(t, counting(ix.idx, qc.q, qc.order, &n), qc.q, qc.order)
				binds, unbinds, dead := n.binds.Load(), n.unbinds.Load(), n.deadBinds.Load()
				where := ix.name + " / " + qc.name + " / " + ex.name
				if binds != unbinds {
					t.Errorf("%s: %d Bind calls, %d Unbind calls", where, binds, unbinds)
				}
				if ltj.RingdebugEnabled {
					continue
				}
				if dead != 0 {
					t.Errorf("%s: %d binds in patterns no deeper variable reads", where, dead)
				}
				if !qc.repeats && int64(stats.Binds) != binds {
					t.Errorf("%s: EvalStats.Binds = %d, iterators saw %d", where, stats.Binds, binds)
				}
				if len(qc.order) > 1 && ex.name == "exhaustion" && binds == 0 {
					t.Errorf("%s: no Bind at all on a %d-solution query — the counters are not wired", where, want)
				}
			}
		}
	}
}

// TestEvaluateAllocsPerSolution pins the emit path's allocation shape:
// each solution costs Evaluate the objects of one Binding and nothing
// else — no copy of the slots, no second map beside the one returned —
// on top of a per-query constant.
func TestEvaluateAllocsPerSolution(t *testing.T) {
	// One hub subject: a single lonely variable, so growing the Limit
	// grows nothing but the emitted solutions.
	const n = 1000
	hub := make([]graph.Triple, 0, 2*n)
	for o := graph.ID(0); o < 2*n; o++ {
		hub = append(hub, graph.Triple{S: 0, P: 0, O: o + 1})
	}
	r := ring.New(graph.New(hub), ring.Options{})
	idx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return r.NewPatternState(tp) })
	q := graph.Pattern{graph.TP(graph.Const(0), graph.Const(0), graph.Var("y"))}
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := ltj.Evaluate(idx, q, ltj.Options{Limit: limit})
			if err != nil || len(res.Solutions) != limit {
				t.Fatalf("limit %d: %d solutions, err %v", limit, len(res.Solutions), err)
			}
		})
	}
	perBinding := testing.AllocsPerRun(100, func() {
		b := make(graph.Binding, 1)
		b["y"] = 1
		sinkBinding = b
	})
	small, large := allocs(n), allocs(2*n)
	t.Logf("allocs: %d solutions %.0f, %d solutions %.0f, one Binding %.0f", n, small, 2*n, large, perBinding)
	// The slack covers res.Solutions doubling once between the limits.
	if perSolution := (large - small) / n; perSolution > perBinding+0.01 {
		t.Errorf("Evaluate allocates %.3f objects per solution; one Binding is %.0f", perSolution, perBinding)
	}
	if constant := small - n*perBinding; constant > 64 {
		t.Errorf("Evaluate allocates %.0f objects per query beyond its %d Bindings", constant, n)
	}
}

var sinkBinding graph.Binding

// TestStreamSlotsSetupAllocs pins what setting up a query costs: a tiny
// anchored two-pattern join on a 1k-triple ring — one batched join
// variable, one lonely variable — stays within 30 heap objects per
// StreamSlots call, iterators, order and plan included. It took 64 while
// the order was computed over maps and bind stacks grew on the heap.
func TestStreamSlotsSetupAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(rng, 1000, 40, 2)
	r := ring.New(g, ring.Options{})
	idx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return r.NewPatternState(tp) })
	a := g.Triples()[0]
	q := graph.Pattern{
		graph.TP(graph.Const(a.S), graph.Const(a.P), graph.Var("x")),
		graph.TP(graph.Var("x"), graph.Const(a.P), graph.Var("y")),
	}
	var stats ltj.EvalStats
	n := 0
	emit := func([]string, []graph.ID) bool {
		n++
		return n < 100
	}
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		if err := ltj.StreamSlots(idx, q, ltj.Options{}, &stats, emit); err != nil {
			t.Fatal(err)
		}
	})
	if n == 0 || stats.BatchDescents == 0 || stats.Enumerations == 0 {
		t.Fatalf("%d solutions, stats %+v: the query no longer takes the batched and lonely lanes", n, stats)
	}
	t.Logf("%.0f objects per call (%d solutions)", allocs, n)
	if allocs > 30 {
		t.Errorf("StreamSlots allocates %.0f objects per call, want ≤ 30", allocs)
	}
}
