package ring

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Adversarial multi-pattern enumeration benchmarks: the shapes where the
// batched radix-intersection lane and the scalar leapfrog diverge most —
// dense contiguous candidate runs (one shared descent amortizes across
// thousands of values), sparse high-ID tails (subtree pruning skips the
// empty space leapfrog has to probe), and backward-direction sweeps (a
// run of range successors from one pattern). `make bench-smoke` keeps
// them compiling and running; the lane's recorded numbers are ringbench's
// (ring.batch_leap_ns_per_value, ltj.batch_*).

// adversarialCase describes one join-enumeration scenario: k patterns
// anchored at constant subjects, joining on their object variable.
type adversarialCase struct {
	name     string
	build    func() *graph.Graph
	subjects []graph.ID
}

// runGraph builds a graph where each listed subject s_i carries the
// objects {base_i + j*stride_i : j < count_i} under predicate 0, plus
// background noise so the ranges are not the whole column.
func runGraph(numSO graph.ID, specs [][3]int) *graph.Graph {
	var ts []graph.Triple
	for i, sp := range specs {
		base, stride, count := sp[0], sp[1], sp[2]
		for j := 0; j < count; j++ {
			ts = append(ts, graph.Triple{S: graph.ID(i), P: 0, O: graph.ID(base + j*stride)})
		}
	}
	rng := rand.New(rand.NewSource(91))
	for j := 0; j < 20_000; j++ {
		ts = append(ts, graph.Triple{
			S: graph.ID(100 + rng.Intn(1000)),
			P: graph.ID(rng.Intn(4)),
			O: graph.ID(rng.Intn(int(numSO))),
		})
	}
	return graph.NewWithDomains(ts, numSO, 4)
}

func adversarialCases() []adversarialCase {
	return []adversarialCase{
		{
			// Two subjects sharing a ~39k-value dense contiguous run.
			name:     "dense-runs-k2",
			build:    func() *graph.Graph { return runGraph(120_000, [][3]int{{0, 1, 40_000}, {500, 1, 40_000}}) },
			subjects: []graph.ID{0, 1},
		},
		{
			// Three-way dense overlap.
			name: "dense-runs-k3",
			build: func() *graph.Graph {
				return runGraph(120_000, [][3]int{{0, 1, 40_000}, {500, 1, 40_000}, {1000, 1, 40_000}})
			},
			subjects: []graph.ID{0, 1, 2},
		},
		{
			// Sparse arithmetic progressions in the high-ID tail: the
			// intersection is tiny (lcm-spaced), most subtrees prune.
			name: "sparse-tail-k2",
			build: func() *graph.Graph {
				return runGraph(500_000, [][3]int{{200_000, 97, 3000}, {200_000, 89, 3000}})
			},
			subjects: []graph.ID{0, 1},
		},
		{
			// Large ranges, small random overlap.
			name: "selective-k2",
			build: func() *graph.Graph {
				rng := rand.New(rand.NewSource(92))
				var ts []graph.Triple
				for i := 0; i < 2; i++ {
					for j := 0; j < 8000; j++ {
						ts = append(ts, graph.Triple{S: graph.ID(i), P: 0, O: graph.ID(rng.Intn(600_000))})
					}
				}
				return graph.NewWithDomains(ts, 600_000, 4)
			},
			subjects: []graph.ID{0, 1},
		},
	}
}

func joinStates(r *Ring, subjects []graph.ID) ([]*PatternState, []graph.Position) {
	states := make([]*PatternState, len(subjects))
	positions := make([]graph.Position, len(subjects))
	for i, s := range subjects {
		states[i] = r.NewPatternState(graph.TP(graph.Const(s), graph.Var("p"), graph.Var("o")))
		positions[i] = graph.PosO
	}
	return states, positions
}

func BenchmarkJoinEnumerate(b *testing.B) {
	for _, tc := range adversarialCases() {
		g := tc.build()
		r := New(g, Options{})
		b.Run(tc.name+"/scalar", func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				states, positions := joinStates(r, tc.subjects)
				s += len(leapfrogJoin(states, positions))
			}
			sinkInt = s
		})
		b.Run(tc.name+"/batched", func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				states, positions := joinStates(r, tc.subjects)
				if !EnumerateJoin(states, positions, func(graph.ID) bool {
					s++
					return true
				}) {
					b.Fatal("EnumerateJoin unsupported")
				}
			}
			sinkInt = s
		})
	}
}

// BenchmarkBatchLeapSweep measures the backward-direction sweep: draining
// one pattern's object run through chunked BatchLeap calls versus the
// scalar Leap chain. This is the k=1 amortization (satellite case) rather
// than the k-way intersection.
func BenchmarkBatchLeapSweep(b *testing.B) {
	g := runGraph(120_000, [][3]int{{0, 3, 30_000}})
	for _, v := range []struct {
		name string
		opt  Options
	}{
		{"ring", Options{}},
		{"c-ring", Options{Compress: true, RRRBlock: 16}},
	} {
		r := New(g, v.opt)
		b.Run(v.name+"/scalar", func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				ps := r.NewPatternState(graph.TP(graph.Const(0), graph.Var("p"), graph.Var("o")))
				c := graph.ID(0)
				for {
					nxt, ok := ps.Leap(graph.PosO, c)
					if !ok {
						break
					}
					s++
					c = nxt + 1
				}
			}
			sinkInt = s
		})
		b.Run(v.name+"/batched", func(b *testing.B) {
			buf := make([]graph.ID, 0, 256)
			s := 0
			for i := 0; i < b.N; i++ {
				ps := r.NewPatternState(graph.TP(graph.Const(0), graph.Var("p"), graph.Var("o")))
				c := graph.ID(0)
				for {
					buf = ps.BatchLeap(graph.PosO, c, buf[:0])
					if len(buf) == 0 {
						break
					}
					s += len(buf)
					last := buf[len(buf)-1]
					if len(buf) < cap(buf) || last == graph.MaxID {
						break
					}
					c = last + 1
				}
			}
			sinkInt = s
		})
	}
}
