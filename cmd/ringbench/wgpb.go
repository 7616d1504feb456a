package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/baseline/btree"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/wgpb"
)

// The paper's WGPB protocol (Section 5.2): first 1000 solutions, with a
// timeout. A timeout is a failed operation here, so it is set far above
// anything the seed takes.
const (
	wgpbLimit   = 1000
	wgpbTimeout = 10 * time.Second
	// oracleTimeout bounds the nested-loop evaluator on one query; a query
	// it cannot finish is reported as unverified, not as wrong.
	oracleTimeout = 5 * time.Second
)

// bgp is one WGPB query instance.
type bgp struct {
	shape string
	pat   graph.Pattern
}

// wgpbEnv is what wgpb-cold and wgpb-hot run against: the generated graph
// (kept for verification), the ring built from it, and the query set in
// the order it is issued.
type wgpbEnv struct {
	g       *graph.Graph
	r       *ring.Ring
	queries []bgp
}

func (e *wgpbEnv) index() ltj.Index {
	return ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return e.r.NewPatternState(tp) })
}

// generateGraph builds a workload's graph: the dataset's, at this size.
func generateGraph(triples int) *graph.Graph {
	cfg := wgpb.DefaultGraphConfig(triples)
	cfg.Seed = dataset
	return wgpb.Generate(cfg)
}

// buildWGPB generates the graph, builds the ring and instantiates perShape
// random-walk queries for each of the 17 shapes (the query log, part of the
// dataset). Queries are issued round-robin over the shapes; seed permutes
// the instances within each shape.
func buildWGPB(triples, perShape int, seed int64) (*wgpbEnv, error) {
	g := generateGraph(triples)
	e := &wgpbEnv{g: g, r: ring.New(g, ring.Options{})}
	w := wgpb.NewWorkload(g, dataset)
	rng := rand.New(rand.NewSource(seed))
	per := make([][]graph.Pattern, len(wgpb.Shapes))
	for i := range wgpb.Shapes {
		per[i] = w.Queries(&wgpb.Shapes[i], perShape)
		if len(per[i]) == 0 {
			return nil, fmt.Errorf("no %s instance could be generated on %d triples", wgpb.Shapes[i].Name, triples)
		}
		rng.Shuffle(len(per[i]), func(a, b int) { per[i][a], per[i][b] = per[i][b], per[i][a] })
	}
	for k := 0; k < perShape; k++ {
		for i := range wgpb.Shapes {
			if k < len(per[i]) {
				e.queries = append(e.queries, bgp{shape: wgpb.Shapes[i].Name, pat: per[i][k]})
			}
		}
	}
	return e, nil
}

// evalSample is one timed ltj.Evaluate call.
type evalSample struct {
	q     int
	ns    int64
	count int
	bad   bool // error or timeout
	stats ltj.EvalStats
}

// evalPasses issues the whole query set in order, passes times over, from
// one goroutine — the closed loop of a single caller.
func (e *wgpbEnv) evalPasses(passes int, tr *tracer) []evalSample {
	idx := e.index()
	opt := ltj.Options{Limit: wgpbLimit, Timeout: wgpbTimeout}
	out := make([]evalSample, 0, passes*len(e.queries))
	for pass := 0; pass < passes; pass++ {
		for qi, q := range e.queries {
			t0 := time.Now()
			res, err := ltj.Evaluate(idx, q.pat, opt)
			t1 := time.Now()
			s := evalSample{q: qi, ns: t1.Sub(t0).Nanoseconds(), bad: err != nil}
			if res != nil {
				s.count, s.stats = len(res.Solutions), res.Stats
				s.bad = s.bad || res.TimedOut
			}
			out = append(out, s)
			tr.add("ltj.evaluate", "workload", qi, t0, t1)
		}
	}
	return out
}

// verifyWGPB re-evaluates one query in stride (all of them when stride is
// 1), untimed, and checks the answer three ways: every binding satisfies
// every triple pattern in the generated graph; the solution count is what
// the timed run saw (the engine is deterministic); and the count equals
// min(limit, n) as an independent nested-loop evaluator over B+-trees
// finds it. It returns the indexes of the queries that failed.
func (h *harness) verifyWGPB(e *wgpbEnv, timedCount map[int]int, stride int) map[int]bool {
	bad := map[int]bool{}
	oracle := btree.NewJena(e.g)
	idx := e.index()
	checked, skipped := 0, 0
	for qi := int(h.cfg.seed%int64(stride)+int64(stride)) % stride; qi < len(e.queries); qi += stride {
		want, seen := timedCount[qi]
		if !seen {
			continue
		}
		q := e.queries[qi]
		res, err := ltj.Evaluate(idx, q.pat, ltj.Options{Limit: wgpbLimit, Timeout: wgpbTimeout})
		if err != nil || res.TimedOut {
			bad[qi] = true
			continue
		}
		checked++
		if why := checkBindings(e.g, q.pat, res.Solutions); why != "" {
			bad[qi] = true
			h.note("%s query %d: %s", q.shape, qi, why)
			continue
		}
		if len(res.Solutions) != want {
			bad[qi] = true
			h.note("%s query %d: %d solutions timed, %d on re-evaluation", q.shape, qi, want, len(res.Solutions))
			continue
		}
		ref, err := oracle.Evaluate(q.pat, ltj.Options{Limit: wgpbLimit, Timeout: oracleTimeout})
		if err != nil || ref.TimedOut {
			skipped++
			continue
		}
		if len(ref.Solutions) != want {
			bad[qi] = true
			h.note("%s query %d: %d solutions, nested loops find %d", q.shape, qi, want, len(ref.Solutions))
		}
	}
	h.samples["verified_queries"] = checked
	h.samples["oracle_gave_up"] = skipped
	return bad
}

// checkBindings reports the first binding that leaves a pattern variable
// unbound or names a triple the graph does not hold; "" when all hold.
func checkBindings(g *graph.Graph, q graph.Pattern, sols []graph.Binding) string {
	value := func(b graph.Binding, t graph.Term) (graph.ID, bool) {
		if !t.IsVar {
			return t.Value, true
		}
		v, ok := b[t.Name]
		return v, ok
	}
	for i, b := range sols {
		for _, tp := range q {
			s, ok1 := value(b, tp.S)
			p, ok2 := value(b, tp.P)
			o, ok3 := value(b, tp.O)
			if !ok1 || !ok2 || !ok3 {
				return fmt.Sprintf("solution %d leaves a variable of %v unbound", i, tp)
			}
			if !g.Contains(graph.Triple{S: s, P: p, O: o}) {
				return fmt.Sprintf("solution %d binds %v to (%d,%d,%d), which is not in the graph", i, tp, s, p, o)
			}
		}
	}
	return ""
}

// runWGPB is wgpb-cold and wgpb-hot: the same shapes, protocol and code
// path, at two index sizes. passS is what one pass takes on the reference
// host (see scale).
func (h *harness) runWGPB(triples int, passS float64, verifyStride, ladderStride int) error {
	sc := h.cfg.sc
	h.logf("building %d-triple graph, ring and %d queries per shape ...", triples, sc.perShape)
	start := time.Now()
	e, err := buildWGPB(triples, sc.perShape, h.cfg.seed)
	if err != nil {
		return err
	}
	h.set("setup_s", time.Since(start).Seconds(), "s")
	h.sizes["triples_requested"] = float64(triples)
	h.sizes["triples_distinct"] = float64(e.g.Len())
	h.sizes["index_bytes"] = float64(e.r.SizeBytes())
	h.sizes["queries"] = float64(len(e.queries))
	h.settle()

	// One discarded pass over the whole query set: page in the ring, grow
	// the allocator, and give every query its first touch before it is
	// timed.
	e.evalPasses(1, nil)

	if h.tr == nil {
		passes := h.passes(passS)
		h.logf("%d measured passes over %d queries ...", passes, len(e.queries))
		h.samples["passes"] = passes
		h.finishWGPB(e, e.evalPasses(passes, nil), verifyStride)
		return nil
	}

	// Traced run: one untraced pass, then the same pass traced (so the
	// engine's counts repeat exactly), then the query.Select rung and the
	// micro-probes.
	plain := e.evalPasses(1, nil)
	traced := e.evalPasses(1, h.tr)
	h.samples["passes"] = 1
	h.set("harness.trace_overhead_ratio", sumNS(plain)/sumNS(traced), "ratio")
	h.finishWGPB(e, traced, verifyStride)
	h.ltjMetrics(traced, func(i int) string { return e.queries[i].shape })

	idx := e.index()
	var sel, base []float64
	for qi := 0; qi < len(e.queries); qi += ladderStride {
		t0 := time.Now()
		_, err := query.Select{Pattern: e.queries[qi].pat, Limit: wgpbLimit, Timeout: wgpbTimeout}.Run(idx)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("query.Select on %s query %d: %w", e.queries[qi].shape, qi, err)
		}
		h.tr.add("query.select", "workload", qi, t0, t1)
		sel = append(sel, float64(t1.Sub(t0).Nanoseconds())/1e3)
		base = append(base, float64(traced[qi].ns)/1e3)
	}
	h.set("query.select_self_us", median(sel)-median(base), "us")
	h.probeLayers(e.r, e.g)
	return nil
}

// finishWGPB verifies the answers and sets the end-to-end metrics from
// whole passes over the query set.
//
// Each query's latency is the median of its timings, one per pass, and the
// percentiles are taken over the queries: a burst of interference from the
// host then moves one timing of some queries, not the result, and every
// query is estimated from the same number of timings whatever the speed of
// the code under test. With one caller in a closed loop throughput is the
// inverse of mean latency, so queries_per_s is the verified-correct queries
// of one pass over the sum of their typical latencies.
func (h *harness) finishWGPB(e *wgpbEnv, samples []evalSample, verifyStride int) {
	timedCount := map[int]int{}
	timings := make([][]float64, len(e.queries))
	for _, s := range samples {
		timedCount[s.q] = s.count
		timings[s.q] = append(timings[s.q], float64(s.ns)/1e6)
	}
	wrong := h.verifyWGPB(e, timedCount, verifyStride)
	for _, s := range samples {
		if s.bad || wrong[s.q] {
			h.failed++
			wrong[s.q] = true
		}
	}
	h.attempted += len(samples)
	typical := make([]float64, 0, len(timings))
	correct, totalMS := 0, 0.0
	for q, ms := range timings {
		t := median(ms)
		typical = append(typical, t)
		totalMS += t
		if !wrong[q] {
			correct++
		}
	}
	sort.Float64s(typical)
	h.queryMetrics(percentile(typical, 50), percentile(typical, 99), float64(correct)/(totalMS/1e3), len(typical))
	h.samples["query"] = len(samples)
	h.set("index_bytes_per_triple", float64(e.r.SizeBytes())/float64(e.g.Len()), "B/triple")
}

// ltjMetrics derives the engine rows from one pass of samples: the median
// per query, the per-shape medians (Figure 8's rows) when the queries have
// shapes, and the operation counts of ltj.EvalStats.
func (h *harness) ltjMetrics(samples []evalSample, shapeOf func(q int) string) {
	var all []float64
	byShape := map[string][]float64{}
	var tot ltj.EvalStats
	results, timeouts := 0, 0
	for _, s := range samples {
		all = append(all, float64(s.ns)/1e3)
		if shapeOf != nil {
			sh := shapeOf(s.q)
			byShape[sh] = append(byShape[sh], float64(s.ns)/1e6)
		}
		tot.Leaps += s.stats.Leaps
		tot.Seeks += s.stats.Seeks
		tot.Binds += s.stats.Binds
		tot.BatchDescents += s.stats.BatchDescents
		tot.BatchEmits += s.stats.BatchEmits
		results += s.count
		if s.bad {
			timeouts++
		}
	}
	n := float64(max(len(samples), 1))
	h.set("ltj.evaluate_us", median(all), "us")
	for i := range wgpb.Shapes {
		if lat := byShape[wgpb.Shapes[i].Name]; len(lat) > 0 {
			h.set("ltj."+wgpb.Shapes[i].Name+"_p50_ms", median(lat), "ms")
		}
	}
	h.set("ltj.leaps_per_query", float64(tot.Leaps)/n, "count")
	h.set("ltj.leaps_per_result", float64(tot.Leaps)/float64(max(results, 1)), "count")
	h.set("ltj.seeks_per_query", float64(tot.Seeks)/n, "count")
	h.set("ltj.binds_per_query", float64(tot.Binds)/n, "count")
	h.set("ltj.batch_descents_per_query", float64(tot.BatchDescents)/n, "count")
	h.set("ltj.batch_emits_per_descent", float64(tot.BatchEmits)/float64(max(tot.BatchDescents, 1)), "count")
	h.set("ltj.timeouts", float64(timeouts), "count")
}

func sumNS(samples []evalSample) float64 {
	t := 0.0
	for _, s := range samples {
		t += float64(s.ns)
	}
	return t
}
