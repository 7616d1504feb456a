// Package bench is the benchmark harness that regenerates the paper's
// evaluation: it wraps every index behind one System interface, runs query
// workloads with the paper's limit/timeout protocol, and aggregates the
// statistics reported in Tables 1 and 2 and Figure 8 (averages, medians,
// percentiles, timeout counts, bytes per triple).
package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/baseline/btree"
	"repro/internal/baseline/btreeltj"
	"repro/internal/baseline/flattrie"
	"repro/internal/baseline/qdag"
	"repro/internal/baseline/rdf3x"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
)

// System is one benchmarked configuration: an index plus its evaluator.
type System interface {
	// Name identifies the system in tables ("Ring", "Jena LTJ", ...).
	Name() string
	// SizeBytes is the index footprint (data included — all systems here
	// are clustered/self-contained).
	SizeBytes() int
	// Evaluate runs one basic graph pattern.
	Evaluate(q graph.Pattern, opt ltj.Options) (*ltj.Result, error)
}

// funcSystem adapts closures to System.
type funcSystem struct {
	name string
	size func() int
	eval func(q graph.Pattern, opt ltj.Options) (*ltj.Result, error)
}

func (s funcSystem) Name() string   { return s.name }
func (s funcSystem) SizeBytes() int { return s.size() }
func (s funcSystem) Evaluate(q graph.Pattern, opt ltj.Options) (*ltj.Result, error) {
	return s.eval(q, opt)
}

// NewSystem wraps explicit closures.
func NewSystem(name string, size func() int,
	eval func(q graph.Pattern, opt ltj.Options) (*ltj.Result, error)) System {
	return funcSystem{name: name, size: size, eval: eval}
}

// LTJSystem wraps any ltj.Index (ring, flat tries, B+-tree orders) with
// the shared LTJ engine.
func LTJSystem(name string, idx ltj.Index, size func() int) System {
	return funcSystem{
		name: name,
		size: size,
		eval: func(q graph.Pattern, opt ltj.Options) (*ltj.Result, error) {
			return ltj.Evaluate(idx, q, opt)
		},
	}
}

// RingSystem wraps a ring index.
func RingSystem(name string, r *ring.Ring) System {
	idx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		return r.NewPatternState(tp)
	})
	return LTJSystem(name, idx, r.SizeBytes)
}

// SystemSet identifies which systems to build (some are expensive).
type SystemSet struct {
	Ring        bool
	CRing       bool
	EmptyHeaded bool // flat tries, 6 orders
	Qdag        bool
	Jena        bool // 3 B+-tree orders, nested-loop joins
	JenaLTJ     bool // 6 B+-tree orders, LTJ
	RDF3X       bool // compressed clustered, pairwise joins
}

// AllSystems selects everything.
func AllSystems() SystemSet {
	return SystemSet{Ring: true, CRing: true, EmptyHeaded: true, Qdag: true,
		Jena: true, JenaLTJ: true, RDF3X: true}
}

// Build constructs the selected systems over g, in the paper's Table 1
// row order.
func Build(g *graph.Graph, set SystemSet) []System {
	var out []System
	if set.Ring {
		out = append(out, RingSystem("Ring", ring.New(g, ring.Options{})))
	}
	if set.CRing {
		out = append(out, RingSystem("C-Ring", ring.New(g, ring.Options{Compress: true, RRRBlock: 16})))
	}
	if set.EmptyHeaded {
		idx := flattrie.New(g)
		out = append(out, LTJSystem("EmptyHeaded", idx, idx.SizeBytes))
	}
	if set.Qdag {
		idx := qdag.New(g)
		out = append(out, NewSystem("Qdag", idx.SizeBytes, idx.Evaluate))
	}
	if set.Jena {
		idx := btree.NewJena(g)
		out = append(out, NewSystem("Jena", idx.SizeBytes, idx.Evaluate))
	}
	if set.JenaLTJ {
		idx := btreeltj.New(g)
		out = append(out, LTJSystem("Jena LTJ", idx, idx.SizeBytes))
	}
	if set.RDF3X {
		idx := rdf3x.New(g)
		out = append(out, NewSystem("RDF-3X", idx.SizeBytes, idx.Evaluate))
	}
	return out
}

// QueryStat records one query execution.
type QueryStat struct {
	Elapsed     time.Duration
	Solutions   int
	TimedOut    bool
	Unsupported bool
}

// RunStats aggregates a workload run.
type RunStats struct {
	System string
	// Parallelism is the intra-query worker count the run used
	// (0 = sequential); set by ParallelSweep.
	Parallelism int
	Queries     []QueryStat
}

// Run evaluates every query sequentially (as the paper does) and records
// per-query statistics. Systems that cannot evaluate a query (e.g. Qdag
// with constants in subject position) get Unsupported entries.
func Run(sys System, queries []graph.Pattern, opt ltj.Options) (*RunStats, error) {
	stats := &RunStats{System: sys.Name(), Queries: make([]QueryStat, 0, len(queries))}
	for _, q := range queries {
		start := time.Now()
		res, err := sys.Evaluate(q, opt)
		elapsed := time.Since(start)
		if err != nil {
			if errors.Is(err, qdag.ErrUnsupported) {
				stats.Queries = append(stats.Queries, QueryStat{Unsupported: true})
				continue
			}
			return nil, fmt.Errorf("bench: %s on %v: %w", sys.Name(), q, err)
		}
		stats.Queries = append(stats.Queries, QueryStat{
			Elapsed:   elapsed,
			Solutions: len(res.Solutions),
			TimedOut:  res.TimedOut,
		})
	}
	return stats, nil
}

// ParallelSweep runs the same workload at several intra-query
// parallelism levels (0/1 = sequential) and returns one RunStats per
// level, in order — the data behind `benchtables -table parallel`.
// Queries within a level still run sequentially, as in the paper's
// protocol; only the evaluation of each individual query is parallel.
func ParallelSweep(sys System, queries []graph.Pattern, opt ltj.Options, levels []int) ([]*RunStats, error) {
	out := make([]*RunStats, 0, len(levels))
	for _, p := range levels {
		o := opt
		o.Parallelism = p
		stats, err := Run(sys, queries, o)
		if err != nil {
			return nil, err
		}
		stats.Parallelism = p
		out = append(out, stats)
	}
	return out, nil
}

// Speedup returns base's mean query time divided by s's (how much faster
// s ran the workload); 0 when s recorded no time.
func Speedup(base, s *RunStats) float64 {
	if s.Mean() == 0 {
		return 0
	}
	return float64(base.Mean()) / float64(s.Mean())
}

// supported returns the non-Unsupported durations, sorted.
func (s *RunStats) supported() []time.Duration {
	var out []time.Duration
	for _, q := range s.Queries {
		if !q.Unsupported {
			out = append(out, q.Elapsed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mean returns the average query time.
func (s *RunStats) Mean() time.Duration {
	ds := s.supported()
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

// Min returns the fastest query time.
func (s *RunStats) Min() time.Duration {
	ds := s.supported()
	if len(ds) == 0 {
		return 0
	}
	return ds[0]
}

// Max returns the slowest query time.
func (s *RunStats) Max() time.Duration {
	ds := s.supported()
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)-1]
}

// Percentile returns the p-th percentile query time (0 < p <= 100).
func (s *RunStats) Percentile(p float64) time.Duration {
	ds := s.supported()
	if len(ds) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(ds))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// Median returns the 50th percentile.
func (s *RunStats) Median() time.Duration { return s.Percentile(50) }

// Timeouts counts queries that hit the deadline.
func (s *RunStats) Timeouts() int {
	n := 0
	for _, q := range s.Queries {
		if q.TimedOut {
			n++
		}
	}
	return n
}

// UnsupportedCount counts queries the system could not run.
func (s *RunStats) UnsupportedCount() int {
	n := 0
	for _, q := range s.Queries {
		if q.Unsupported {
			n++
		}
	}
	return n
}

// BytesPerTriple computes the Table 1/2 space unit.
func BytesPerTriple(sys System, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sys.SizeBytes()) / float64(n)
}
