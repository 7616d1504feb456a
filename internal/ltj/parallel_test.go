package ltj

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
)

// TestParallelLimit checks the Limit short-circuit under parallelism:
// exactly min(Limit, total) solutions come back, and every one of them
// belongs to the sequential solution multiset (which subset arrives is
// scheduling-dependent).
func TestParallelLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := testutil.RandomGraph(rng, 200, 12, 3)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Var("q"), graph.Var("z")),
	}
	seq, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(seq.Solutions)
	if total < 50 {
		t.Fatalf("test graph too sparse: %d solutions", total)
	}
	want := graph.CanonicalizeBindings(seq.Solutions, q.Vars())
	wantCount := map[string]int{}
	for _, k := range want {
		wantCount[k]++
	}
	for _, p := range []int{2, 4, 8} {
		for _, limit := range []int{1, 7, 25, total, total + 10} {
			res, err := Evaluate(idx, q, Options{Parallelism: p, Limit: limit})
			if err != nil {
				t.Fatalf("P=%d limit=%d: %v", p, limit, err)
			}
			wantN := limit
			if total < wantN {
				wantN = total
			}
			if len(res.Solutions) != wantN {
				t.Fatalf("P=%d limit=%d: got %d solutions, want %d", p, limit, len(res.Solutions), wantN)
			}
			gotCount := map[string]int{}
			for _, k := range graph.CanonicalizeBindings(res.Solutions, q.Vars()) {
				gotCount[k]++
			}
			for k, n := range gotCount {
				if n > wantCount[k] {
					t.Fatalf("P=%d limit=%d: solution %s returned %d times, sequential has %d",
						p, limit, k, n, wantCount[k])
				}
			}
		}
	}
}

// TestParallelStatsAggregation: with no limit or timeout, the parallel
// run performs exactly the sequential run's index operations — the
// producer runs search(0) cut down to the first variable and the workers
// run its per-value descent — so the merged counters must equal the
// sequential counters.
func TestParallelStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := testutil.RandomGraph(rng, 150, 15, 3)
	idx := ringIndex(g, ring.Options{})
	for trial := 0; trial < 20; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(3), 1+rng.Intn(4), 0.3, false)
		seq, err := Evaluate(idx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Evaluate(idx, q, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats != seq.Stats {
			t.Fatalf("trial %d query %v: parallel stats %+v != sequential %+v",
				trial, q, par.Stats, seq.Stats)
		}
	}
}

// TestStreamTimeoutFirstTick is the regression test for the deadline
// polling bug: the tick counter used to be checked with ticks&255 == 0,
// so the first 255 work steps never polled and a query could blow far
// past an already-expired deadline. With the fix the very first step
// polls: an expired deadline must stop the evaluation before any
// solution is produced, sequentially and in parallel.
func TestStreamTimeoutFirstTick(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g := testutil.RandomGraph(rng, 300, 20, 3)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Var("q"), graph.Var("z")),
	}
	for _, p := range []int{0, 2, 4} {
		opt := Options{Timeout: time.Nanosecond, Parallelism: p}
		time.Sleep(time.Microsecond) // ensure the deadline has passed
		res, err := Evaluate(idx, q, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.TimedOut {
			t.Fatalf("P=%d: expired deadline not reported as timeout", p)
		}
		if len(res.Solutions) != 0 {
			t.Fatalf("P=%d: %d solutions produced after the deadline, want 0",
				p, len(res.Solutions))
		}
	}
}

// listIter is a minimal list-backed PatternIter used to exercise domain
// corner cases the ring cannot represent (a graph containing
// graph.MaxID would need a universe of 2^32 values). It deliberately
// reports CanEnumerate=false so the engine takes the general seek loop.
type listIter struct {
	cur   []graph.Triple
	stack [][]graph.Triple
}

func newListIter(ts []graph.Triple, tp graph.TriplePattern) *listIter {
	it := &listIter{}
	for _, t := range ts {
		if !tp.S.IsVar && t.S != tp.S.Value {
			continue
		}
		if !tp.P.IsVar && t.P != tp.P.Value {
			continue
		}
		if !tp.O.IsVar && t.O != tp.O.Value {
			continue
		}
		it.cur = append(it.cur, t)
	}
	return it
}

func at(t graph.Triple, pos graph.Position) graph.ID {
	switch pos {
	case graph.PosS:
		return t.S
	case graph.PosP:
		return t.P
	default:
		return t.O
	}
}

func (it *listIter) Count() int  { return len(it.cur) }
func (it *listIter) Empty() bool { return len(it.cur) == 0 }

func (it *listIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	best, ok := graph.ID(0), false
	for _, t := range it.cur {
		v := at(t, pos)
		if v >= c && (!ok || v < best) {
			best, ok = v, true
		}
	}
	return best, ok
}

func (it *listIter) Bind(pos graph.Position, c graph.ID) {
	it.stack = append(it.stack, it.cur)
	var next []graph.Triple
	for _, t := range it.cur {
		if at(t, pos) == c {
			next = append(next, t)
		}
	}
	it.cur = next
}

func (it *listIter) Unbind() {
	it.cur = it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
}

func (it *listIter) CanEnumerate(graph.Position) bool              { return false }
func (it *listIter) Enumerate(graph.Position, func(graph.ID) bool) {}

// TestParallelMaxIDBinding binds the extreme identifier graph.MaxID.
// The seek loops advance with "c = v + 1" after accepting v; without the
// MaxID termination check that increment wraps to 0 and the scan
// restarts forever. The test must terminate and report the solutions
// that bind MaxID, sequentially and in parallel.
func TestParallelMaxIDBinding(t *testing.T) {
	ts := []graph.Triple{
		{S: 1, P: 0, O: 5},
		{S: 1, P: 0, O: graph.MaxID},
		{S: graph.MaxID, P: 0, O: 5},
		{S: graph.MaxID, P: 1, O: graph.MaxID},
	}
	idx := IndexFunc(func(tp graph.TriplePattern) PatternIter {
		return newListIter(ts, tp)
	})
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y"))}
	for _, p := range []int{0, 3} {
		done := make(chan *Result, 1)
		fail := make(chan error, 1)
		go func() {
			res, err := Evaluate(idx, q, Options{Parallelism: p, DisableLonely: true})
			if err != nil {
				fail <- err
				return
			}
			done <- res
		}()
		select {
		case err := <-fail:
			t.Fatalf("P=%d: %v", p, err)
		case res := <-done:
			if len(res.Solutions) != 3 {
				t.Fatalf("P=%d: got %d solutions, want 3: %v", p, len(res.Solutions), res.Solutions)
			}
			sawMax := false
			for _, b := range res.Solutions {
				if b["x"] == graph.MaxID || b["y"] == graph.MaxID {
					sawMax = true
				}
			}
			if !sawMax {
				t.Fatalf("P=%d: no solution binds graph.MaxID: %v", p, res.Solutions)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("P=%d: evaluation did not terminate (MaxID wraparound?)", p)
		}
	}
}

// TestParallelStreamOrderIndependence: the streaming callback runs on
// the calling goroutine only, and sorting the nondeterministic parallel
// stream reproduces the deterministic sequential stream.
func TestParallelStreamOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := testutil.RandomGraph(rng, 120, 12, 3)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Var("p"), graph.Var("z")),
	}
	collect := func(p int) []string {
		var got []graph.Binding
		err := StreamSlots(idx, q, Options{Parallelism: p}, &EvalStats{}, func(order []string, vals []graph.ID) bool {
			got = append(got, binding(order, vals))
			return true
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		keys := graph.CanonicalizeBindings(got, q.Vars())
		sort.Strings(keys)
		return keys
	}
	seq := collect(0)
	if len(seq) == 0 {
		t.Fatal("query has no solutions; pick a denser seed")
	}
	for _, p := range []int{2, 4, 8} {
		par := collect(p)
		if len(par) != len(seq) {
			t.Fatalf("P=%d: %d solutions, want %d", p, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("P=%d: sorted stream diverges at %d: %s != %s", p, i, par[i], seq[i])
			}
		}
	}
}
