package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Hand-rolled Prometheus-text instrumentation. The repo's no-dependency
// rule extends to the serving layer, and the exposition format is simple
// enough that counters, gauges and histograms fit in a page: everything
// below renders through writeProm into the standard
// `name{labels} value` / `# TYPE` form that any Prometheus scraper (or
// grep in the smoke lane) consumes.

// counter is a monotonically increasing metric.
type counter struct{ v atomic.Int64 }

func (c *counter) inc()         { c.v.Add(1) }
func (c *counter) add(n int64)  { c.v.Add(n) }
func (c *counter) value() int64 { return c.v.Load() }

// gauge is a set-or-adjust metric.
type gauge struct{ v atomic.Int64 }

func (g *gauge) set(n int64)  { g.v.Store(n) }
func (g *gauge) inc()         { g.v.Add(1) }
func (g *gauge) dec()         { g.v.Add(-1) }
func (g *gauge) value() int64 { return g.v.Load() }

// labeledCounter is a counter family over one or two label values, keyed
// by the pre-rendered label string (e.g. `endpoint="query",code="200"`).
type labeledCounter struct {
	mu sync.Mutex
	m  map[string]*counter //ringlint:guarded-by mu
}

func (lc *labeledCounter) get(labels string) *counter {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.m == nil {
		lc.m = map[string]*counter{}
	}
	c := lc.m[labels]
	if c == nil {
		c = &counter{}
		lc.m[labels] = c
	}
	return c
}

func (lc *labeledCounter) snapshot() map[string]int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]int64, len(lc.m))
	for k, c := range lc.m {
		out[k] = c.value()
	}
	return out
}

// histogram is a cumulative-bucket latency histogram with fixed
// exponential bounds; the sum is tracked in nanoseconds to stay atomic.
type histogram struct {
	bounds   []float64 // upper bounds in seconds, ascending
	buckets  []atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

// latencyBuckets spans 0.5ms–10s, enough to place both a cache hit and a
// near-timeout join.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s) // first bound >= s
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// metrics is the server's full instrument set. Scrape-time values (cache
// occupancy, admission queue depth, readiness) are set by the /metrics
// handler just before rendering.
type metrics struct {
	requests labeledCounter // endpoint, code
	queries  labeledCounter // outcome: ok | timeout | cancelled | shed | error
	shed     labeledCounter // reason: queue_full | queue_timeout | not_ready

	inFlight   gauge // queries admitted and evaluating (weight units)
	queueDepth gauge
	ready      gauge

	queryDur *histogram

	// Live-mode ingestion: mutation requests by op and outcome, applied
	// triples, and end-to-end mutation latency (including the group
	// commit wait for sync requests).
	mutations       labeledCounter // op: insert | delete; outcome
	mutationTriples counter
	mutationDur     *histogram

	ltjLeaps, ltjBinds, ltjSeeks, ltjEnums counter
	ltjBatchDescents, ltjBatchEmits        counter

	indexTriples, indexSubjects, indexPredicates, indexObjects gauge
}

func newMetrics() *metrics {
	return &metrics{
		queryDur:    newHistogram(latencyBuckets),
		mutationDur: newHistogram(latencyBuckets),
	}
}

func writeLabeled(w io.Writer, name, help string, lc *labeledCounter) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	snap := lc.snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", name, k, snap[k])
	}
}

func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, g *gauge) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, g.value())
}

// writeFloatGauge renders a float-valued gauge (durations in seconds);
// the server's gauge type is integer, so the handful of float series are
// rendered from their source values at scrape time instead.
func writeFloatGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func writeHistogram(w io.Writer, name, help string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// writeProm renders every series in Prometheus text exposition format.
// The cache counters live in the cache itself; the caller passes a
// snapshot so there is a single source of truth.
func (m *metrics) writeProm(w io.Writer, cs cacheStats) {
	writeLabeled(w, "ringserve_requests_total", "HTTP requests by endpoint and status code.", &m.requests)
	writeLabeled(w, "ringserve_queries_total", "Query evaluations by outcome.", &m.queries)
	writeLabeled(w, "ringserve_admission_shed_total", "Queries shed by the admission controller, by reason.", &m.shed)
	writeGauge(w, "ringserve_in_flight", "Admitted query weight currently evaluating.", &m.inFlight)
	writeGauge(w, "ringserve_admission_queue_depth", "Requests waiting for admission.", &m.queueDepth)
	writeGauge(w, "ringserve_ready", "1 once the index is loaded and self-checked (0 while loading or draining).", &m.ready)
	writeHistogram(w, "ringserve_query_duration_seconds", "End-to-end query handling latency.", m.queryDur)
	writeLabeled(w, "ringserve_mutations_total", "Mutation requests by op and outcome (live mode).", &m.mutations)
	writeCounter(w, "ringserve_mutation_triples_total", "Triples actually inserted or deleted (live mode).", m.mutationTriples.value())
	writeHistogram(w, "ringserve_mutation_duration_seconds", "End-to-end mutation handling latency, including the durability wait.", m.mutationDur)
	writeCounter(w, "ringserve_cache_hits_total", "Result-cache hits.", cs.Hits)
	writeCounter(w, "ringserve_cache_misses_total", "Result-cache misses.", cs.Misses)
	writeCounter(w, "ringserve_cache_evictions_total", "Result-cache LRU evictions.", cs.Evictions)
	writeCounter(w, "ringserve_cache_invalidations_total", "Result-cache invalidation sweeps.", cs.Invalidations)
	fmt.Fprintf(w, "# HELP ringserve_cache_entries Result-cache resident entries.\n# TYPE ringserve_cache_entries gauge\nringserve_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# HELP ringserve_cache_bytes Approximate result-cache resident bytes.\n# TYPE ringserve_cache_bytes gauge\nringserve_cache_bytes %d\n", cs.Bytes)
	writeCounter(w, "ringserve_ltj_leaps_total", "LTJ Leap operations across all queries.", m.ltjLeaps.value())
	writeCounter(w, "ringserve_ltj_binds_total", "LTJ Bind operations across all queries.", m.ltjBinds.value())
	writeCounter(w, "ringserve_ltj_seeks_total", "LTJ seek intersections across all queries.", m.ltjSeeks.value())
	writeCounter(w, "ringserve_ltj_enumerations_total", "LTJ lonely-variable enumerations across all queries.", m.ltjEnums.value())
	writeCounter(w, "ringserve_ltj_batch_descents_total", "LTJ batched radix-intersection descents across all queries.", m.ltjBatchDescents.value())
	writeCounter(w, "ringserve_ltj_batch_emits_total", "Candidates emitted by LTJ batched descents across all queries.", m.ltjBatchEmits.value())
	writeGauge(w, "ringserve_index_triples", "Triples in the loaded index.", &m.indexTriples)
	writeGauge(w, "ringserve_index_distinct_subjects", "Distinct subjects in the loaded index.", &m.indexSubjects)
	writeGauge(w, "ringserve_index_distinct_predicates", "Distinct predicates in the loaded index.", &m.indexPredicates)
	writeGauge(w, "ringserve_index_distinct_objects", "Distinct objects in the loaded index.", &m.indexObjects)
}
