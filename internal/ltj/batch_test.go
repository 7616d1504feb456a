package ltj

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
)

// binding copies one StreamSlots solution into a map.
func binding(order []string, vals []graph.ID) graph.Binding {
	b := make(graph.Binding, len(order))
	for j, name := range order {
		b[name] = vals[j]
	}
	return b
}

// sameOrderedSolutions asserts byte-identical solution streams: same
// length, same bindings, same order. The sequential batched lane emits
// candidates in exactly the scalar seek loop's order, so unlike the
// parallel comparison no multiset canonicalization is allowed here.
func sameOrderedSolutions(got, want []graph.Binding, vars []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d solutions, want %d", len(got), len(want))
	}
	for i := range got {
		for _, v := range vars {
			gv, gok := got[i][v]
			wv, wok := want[i][v]
			if gok != wok || gv != wv {
				return fmt.Sprintf("solution %d differs on %q: got %v want %v", i, v, got[i], want[i])
			}
		}
	}
	return ""
}

// batchedGraph is dense: constant-anchored patterns carry ranges of
// hundreds of entries, so the lane's descents prune real subtrees.
func batchedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return testutil.RandomGraph(rng, 5000, 60, 3)
}

// TestBatchedMatchesSequential is the engine-level differential test of
// the batched lane (DESIGN.md §13): the default engine must produce
// byte-identical ordered results to the scalar engine (DisableBatch) on
// random patterns of every shape — including repeated-variable patterns,
// where the lane must decline — and the same multiset as the parallel
// engine.
func TestBatchedMatchesSequential(t *testing.T) {
	g := batchedGraph(81)
	idx := ringIndex(g, ring.Options{})
	rng := rand.New(rand.NewSource(82))
	descents := 0
	for trial := 0; trial < 50; trial++ {
		nt := 1 + rng.Intn(4)
		nv := 1 + rng.Intn(4)
		q := testutil.RandomPattern(rng, g, nt, nv, 0.3, trial%5 == 0)
		scalar, err := Evaluate(idx, q, Options{DisableBatch: true})
		if err != nil {
			t.Fatalf("trial %d scalar %v: %v", trial, q, err)
		}
		batched, err := Evaluate(idx, q, Options{})
		if err != nil {
			t.Fatalf("trial %d batched %v: %v", trial, q, err)
		}
		if diff := sameOrderedSolutions(batched.Solutions, scalar.Solutions, q.Vars()); diff != "" {
			t.Fatalf("trial %d query %v: %s", trial, q, diff)
		}
		descents += batched.Stats.BatchDescents
		par, err := Evaluate(idx, q, Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("trial %d parallel %v: %v", trial, q, err)
		}
		if diff := testutil.SameSolutions(par.Solutions, scalar.Solutions, q.Vars()); diff != "" {
			t.Fatalf("trial %d parallel query %v: %s", trial, q, diff)
		}
	}
	if descents == 0 {
		t.Fatal("batched lane never engaged across 50 trials — differential test is vacuous")
	}
}

// TestBatchedLimit: with a Limit the batched stream must be the same
// prefix the scalar stream produces (same order ⇒ same prefix).
func TestBatchedLimit(t *testing.T) {
	g := batchedGraph(83)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
	}
	full, err := Evaluate(idx, q, Options{DisableBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 7, 50} {
		lim, err := Evaluate(idx, q, Options{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		want := full.Solutions
		if len(want) > limit {
			want = want[:limit]
		}
		if diff := sameOrderedSolutions(lim.Solutions, want, q.Vars()); diff != "" {
			t.Fatalf("limit %d: %s", limit, diff)
		}
	}
}

// TestBatchedTimeoutPartial: a timeout mid-run surfaces as TimedOut with
// the solutions found so far — a prefix of the scalar engine's stream.
func TestBatchedTimeoutPartial(t *testing.T) {
	g := batchedGraph(84)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("y"), graph.Const(2), graph.Var("w")),
	}
	full, err := Evaluate(idx, q, Options{DisableBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Evaluate(idx, q, Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !part.TimedOut {
		t.Skip("evaluation finished within a nanosecond; nothing to assert")
	}
	if len(part.Solutions) > len(full.Solutions) {
		t.Fatalf("timed-out run produced %d solutions, full run %d", len(part.Solutions), len(full.Solutions))
	}
	if diff := sameOrderedSolutions(part.Solutions, full.Solutions[:len(part.Solutions)], q.Vars()); diff != "" {
		t.Fatalf("timed-out solutions are not a prefix of the full stream: %s", diff)
	}
}

// TestBatchedContextCancel: cancellation inside the batched descent
// surfaces as ErrCancelled wrapping the context error.
func TestBatchedContextCancel(t *testing.T) {
	g := batchedGraph(85)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Evaluate(idx, q, Options{Context: ctx})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	// Parallel mode composes with the batched producer the same way.
	_, err = Evaluate(idx, q, Options{Parallelism: 4, Context: ctx})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel pre-cancelled context: err = %v", err)
	}

	// Cancelled mid-run, the stream cut so far is a prefix of the scalar
	// engine's.
	full, err := Evaluate(idx, q, Options{DisableBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var cut []graph.Binding
	err = StreamSlots(idx, q, Options{Context: ctx}, &EvalStats{}, func(order []string, vals []graph.ID) bool {
		cut = append(cut, binding(order, vals))
		if len(cut) == 10 {
			cancel()
		}
		return true
	})
	if len(cut) < len(full.Solutions) && !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled mid-run after %d of %d solutions: err = %v", len(cut), len(full.Solutions), err)
	}
	if diff := sameOrderedSolutions(cut, full.Solutions[:len(cut)], q.Vars()); diff != "" {
		t.Fatalf("cancelled stream is not a prefix of the scalar stream: %s", diff)
	}
}

// TestBatchedTinyRanges covers join variables whose smallest candidate
// range has one to three entries, where a handful of leaps is closest to
// the descent: the lane has no length condition, so it must take them,
// and agree with the scalar engine.
func TestBatchedTinyRanges(t *testing.T) {
	// Subject 9 is a hub with 200 objects; subjects 1..3 carry k objects
	// each, k-1 of them shared with the hub.
	var ts []graph.Triple
	for o := graph.ID(0); o < 200; o++ {
		ts = append(ts, graph.Triple{S: 9, P: 0, O: 100 + o})
	}
	for k := graph.ID(1); k <= 3; k++ {
		ts = append(ts, graph.Triple{S: k, P: 0, O: 50}) // not a hub object
		for o := graph.ID(1); o < k; o++ {
			ts = append(ts, graph.Triple{S: k, P: 0, O: 100 + 7*o})
		}
	}
	g := graph.New(ts)
	idx := ringIndex(g, ring.Options{})
	for k := graph.ID(1); k <= 3; k++ {
		q := graph.Pattern{
			graph.TP(graph.Const(k), graph.Const(0), graph.Var("o")),
			graph.TP(graph.Const(9), graph.Const(0), graph.Var("o")),
		}
		scalar, err := Evaluate(idx, q, Options{DisableBatch: true})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := Evaluate(idx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(scalar.Solutions) != int(k)-1 {
			t.Fatalf("range %d: scalar engine found %d solutions, want %d", k, len(scalar.Solutions), k-1)
		}
		if diff := sameOrderedSolutions(batched.Solutions, scalar.Solutions, q.Vars()); diff != "" {
			t.Fatalf("range %d: %s", k, diff)
		}
		if batched.Stats.BatchDescents != 1 || batched.Stats.Seeks != 0 {
			t.Fatalf("range %d: lane did not take the variable: %+v", k, batched.Stats)
		}
	}

	// The same on a sparse random graph (most nodes have one to three
	// edges per predicate), over random shapes and under a Limit.
	rng := rand.New(rand.NewSource(87))
	sparse := testutil.RandomGraph(rng, 600, 200, 2)
	sidx := ringIndex(sparse, ring.Options{})
	descents := 0
	for trial := 0; trial < 40; trial++ {
		q := testutil.RandomPattern(rng, sparse, 2+rng.Intn(3), 1+rng.Intn(4), 0.3, false)
		for _, limit := range []int{0, 3} {
			scalar, err := Evaluate(sidx, q, Options{DisableBatch: true, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Evaluate(sidx, q, Options{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameOrderedSolutions(batched.Solutions, scalar.Solutions, q.Vars()); diff != "" {
				t.Fatalf("trial %d query %v limit %d: %s", trial, q, limit, diff)
			}
			descents += batched.Stats.BatchDescents
		}
	}
	if descents == 0 {
		t.Fatal("batched lane never engaged on the sparse graph")
	}
}

// TestStreamBindingContract pins what StreamSlots hands to emit: slots
// holding exactly the query's variables at every call, in Evaluate's
// order, and a single call with no slots for an all-ground satisfied
// query (which Evaluate reports as one empty Binding).
func TestStreamBindingContract(t *testing.T) {
	g := batchedGraph(88)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
	}
	want, err := Evaluate(idx, q, Options{Limit: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2} {
		n := 0
		var got []graph.Binding
		err = StreamSlots(idx, q, Options{Parallelism: par}, &EvalStats{}, func(order []string, vals []graph.ID) bool {
			if len(order) != len(q.Vars()) || len(vals) != len(order) {
				t.Fatalf("P=%d call %d: slots %v=%v do not hold exactly the query's variables", par, n, order, vals)
			}
			b := binding(order, vals)
			for _, v := range q.Vars() {
				if _, ok := b[v]; !ok {
					t.Fatalf("P=%d call %d: slots %v lack %q", par, n, order, v)
				}
			}
			if !g.Contains(graph.Triple{S: b["x"], P: 0, O: b["y"]}) || !g.Contains(graph.Triple{S: b["x"], P: 1, O: b["z"]}) {
				t.Fatalf("P=%d call %d: binding %v is not a solution", par, n, b)
			}
			got = append(got, b)
			n++
			return n < 500
		})
		if err != nil {
			t.Fatal(err)
		}
		if par == 0 {
			if diff := sameOrderedSolutions(got, want.Solutions, q.Vars()); diff != "" {
				t.Fatalf("StreamSlots and Evaluate disagree: %s", diff)
			}
		}
	}

	tr := g.Triples()[0]
	ground := graph.Pattern{graph.TP(graph.Const(tr.S), graph.Const(tr.P), graph.Const(tr.O))}
	calls := 0
	err = StreamSlots(idx, ground, Options{}, &EvalStats{}, func(order []string, vals []graph.ID) bool {
		calls++
		if len(order) != 0 || len(vals) != 0 {
			t.Fatalf("ground query emitted slots %v=%v, want none", order, vals)
		}
		return true
	})
	if err != nil || calls != 1 {
		t.Fatalf("ground satisfied query: %d emits, err %v; want exactly one", calls, err)
	}
	res, err := Evaluate(idx, ground, Options{})
	if err != nil || len(res.Solutions) != 1 || res.Solutions[0] == nil || len(res.Solutions[0]) != 0 {
		t.Fatalf("ground satisfied query: Evaluate gave %v, err %v; want one empty binding", res.Solutions, err)
	}
}

// TestBatchedLaneEngagement pins when the lane runs: it must engage on a
// dense 2-pattern join variable, stay off under DisableBatch, and fall
// back to scalar leaps for single-pattern variables.
func TestBatchedLaneEngagement(t *testing.T) {
	g := batchedGraph(86)
	idx := ringIndex(g, ring.Options{})
	join := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(0), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
	}
	on, err := Evaluate(idx, join, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.BatchDescents == 0 || on.Stats.BatchEmits == 0 {
		t.Fatalf("batched lane did not engage on a dense join: %+v", on.Stats)
	}
	off, err := Evaluate(idx, join, Options{DisableBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.BatchDescents != 0 || off.Stats.BatchEmits != 0 {
		t.Fatalf("DisableBatch still recorded batched work: %+v", off.Stats)
	}
	if off.Stats.Seeks == 0 {
		t.Fatalf("scalar lane recorded no seeks: %+v", off.Stats)
	}
	// A single-pattern (lonely) variable never batches.
	lonely := graph.Pattern{graph.TP(graph.Const(g.Triples()[0].S), graph.Var("p"), graph.Var("o"))}
	res, err := Evaluate(idx, lonely, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BatchDescents != 0 {
		t.Fatalf("batched lane engaged on a single-pattern variable: %+v", res.Stats)
	}
}

// FuzzBatchedLTJ fuzzes the differential property: for an arbitrary
// (graph seed, pattern shape) the batched engine agrees with the scalar
// engine ordered-exactly and with the parallel engine as a multiset.
func FuzzBatchedLTJ(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(40))
	f.Add(int64(7), uint8(3), uint8(3), uint8(10))
	f.Add(int64(99), uint8(4), uint8(4), uint8(90))
	f.Add(int64(-5), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nt, nv, sel uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 400+rng.Intn(800), graph.ID(10+rng.Intn(50)), graph.ID(1+rng.Intn(4)))
		idx := ringIndex(g, ring.Options{})
		// Floor pConst at 0.1: numVars=1 with pConst=0 and no repeats
		// allowed makes RandomPattern spin forever (every candidate is
		// (?v0, ·, ?v0)).
		q := testutil.RandomPattern(rng, g, 1+int(nt%4), 1+int(nv%4), 0.1+float64(sel%85)/100, seed%3 == 0)
		scalar, err := Evaluate(idx, q, Options{DisableBatch: true, Limit: 2000})
		if err != nil {
			t.Fatalf("scalar %v: %v", q, err)
		}
		batched, err := Evaluate(idx, q, Options{Limit: 2000})
		if err != nil {
			t.Fatalf("batched %v: %v", q, err)
		}
		if diff := sameOrderedSolutions(batched.Solutions, scalar.Solutions, q.Vars()); diff != "" {
			t.Fatalf("query %v: %s", q, diff)
		}
		par, err := Evaluate(idx, q, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("parallel %v: %v", q, err)
		}
		if len(scalar.Solutions) < 2000 { // Limit hit ⇒ multisets may differ
			if diff := testutil.SameSolutions(par.Solutions, scalar.Solutions, q.Vars()); diff != "" {
				t.Fatalf("parallel query %v: %s", q, diff)
			}
		}
	})
}
