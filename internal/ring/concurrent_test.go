package ring

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// objectsBySubject walks (?x, 1, ?y) through one pattern state: for every
// subject it leaps to, the objects it leaps to under that binding.
func objectsBySubject(ps *PatternState) map[graph.ID][]graph.ID {
	out := map[graph.ID][]graph.ID{}
	for c := graph.ID(0); ; {
		v, ok := ps.Leap(graph.PosS, c)
		if !ok {
			break
		}
		ps.Bind(graph.PosS, v)
		for o := graph.ID(0); ; {
			w, ok := ps.Leap(graph.PosO, o)
			if !ok {
				break
			}
			out[v] = append(out[v], w)
			if w == graph.MaxID {
				break
			}
			o = w + 1
		}
		ps.Unbind()
		if v == graph.MaxID {
			break
		}
		c = v + 1
	}
	return out
}

// TestParallelForkStates drives one independent PatternState per
// goroutine, all opened over one shared Ring and C-Ring — the sharing
// parallel LTJ workers and concurrent server queries rely on. The ring's
// query structures are immutable after construction, so the states must
// neither race (the -race CI lane runs this test) nor influence each
// other's results: every goroutine re-derives the subject → objects map a
// single sequential cursor produces.
func TestParallelForkStates(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, tc := range bothVariants {
		t.Run(tc.name, func(t *testing.T) {
			g := testutil.RandomGraph(rng, 400, 30, 4)
			r := New(g, tc.opt)
			tp := graph.TP(graph.Var("x"), graph.Const(1), graph.Var("y"))
			want := objectsBySubject(r.NewPatternState(tp))
			if len(want) == 0 {
				t.Fatal("predicate 1 matches nothing; pick a denser seed")
			}

			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got := objectsBySubject(r.NewPatternState(tp))
					if len(got) != len(want) {
						errs <- "subject count mismatch"
						return
					}
					for s, os := range want {
						g := got[s]
						if len(g) != len(os) {
							errs <- "object count mismatch"
							return
						}
						for j := range os {
							if g[j] != os[j] {
								errs <- "object value mismatch"
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}
