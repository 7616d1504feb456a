package ltj

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
)

// heavyQuery is a three-hop all-variable join: over a few thousand random
// triples its full evaluation takes long enough that a cancellation issued
// mid-run is always observed before the search finishes.
func heavyQuery() graph.Pattern {
	return graph.Pattern{
		graph.TP(graph.Var("a"), graph.Var("p1"), graph.Var("b")),
		graph.TP(graph.Var("b"), graph.Var("p2"), graph.Var("c")),
		graph.TP(graph.Var("c"), graph.Var("p3"), graph.Var("d")),
	}
}

func TestSequentialContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := testutil.RandomGraph(rng, 5000, 40, 2)
	idx := ringIndex(g, ring.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := StreamSlots(idx, heavyQuery(), Options{Context: ctx}, &EvalStats{}, func([]string, []graph.ID) bool {
		n++
		if n == 10 {
			cancel()
		}
		return true
	})
	if err == nil {
		t.Fatal("cancelled evaluation returned nil error")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
}

func TestSequentialContextDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	g := testutil.RandomGraph(rng, 5000, 40, 2)
	idx := ringIndex(g, ring.Options{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := StreamSlots(idx, heavyQuery(), Options{Context: ctx}, &EvalStats{}, func([]string, []graph.ID) bool { return true })
	if err == nil {
		t.Skip("machine evaluated the query within a millisecond budget")
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	g := testutil.PaperGraph()
	idx := ringIndex(g, ring.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	err := StreamSlots(idx, q, Options{Context: ctx}, &EvalStats{}, func([]string, []graph.ID) bool { return true })
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestParallelContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	g := testutil.RandomGraph(rng, 5000, 40, 2)
	idx := ringIndex(g, ring.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := StreamSlots(idx, heavyQuery(), Options{Context: ctx, Parallelism: 4}, &EvalStats{}, func([]string, []graph.ID) bool {
		n++
		if n == 10 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestContextDoesNotDisturbCompleteRuns pins that a live, never-cancelled
// context changes neither the solutions nor the error of an evaluation,
// sequentially and in parallel.
func TestContextDoesNotDisturbCompleteRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := testutil.RandomGraph(rng, 300, 20, 3)
	idx := ringIndex(g, ring.Options{})
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y")),
		graph.TP(graph.Var("y"), graph.Var("q"), graph.Var("z")),
	}
	want, err := Evaluate(idx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		got, err := Evaluate(idx, q, Options{Context: context.Background(), Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if diff := testutil.SameSolutions(got.Solutions, want.Solutions, q.Vars()); diff != "" {
			t.Fatalf("parallelism %d: %s", par, diff)
		}
	}
}

// TestLimitStopBeatsCancelledContext: when emit stops the evaluation
// (limit satisfied) the run is a clean success even if the context is
// cancelled immediately afterwards — internal stops are not errors.
func TestLimitStopBeatsCancelledContext(t *testing.T) {
	g := testutil.PaperGraph()
	idx := ringIndex(g, ring.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	err := StreamSlots(idx, q, Options{Context: ctx}, &EvalStats{}, func([]string, []graph.ID) bool {
		cancel()
		return false // stop after the first solution
	})
	if err != nil {
		t.Fatalf("emit-stopped evaluation returned %v, want nil", err)
	}
}
