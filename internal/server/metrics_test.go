package server

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestLabeledCounter(t *testing.T) {
	var lc labeledCounter
	lc.get(`code="200"`).inc()
	lc.get(`code="200"`).inc()
	lc.get(`code="429"`).inc()
	snap := lc.snapshot()
	if snap[`code="200"`] != 2 || snap[`code="429"`] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram(latencyBuckets)
	obs := []time.Duration{
		700 * time.Microsecond, // (0.0005, 0.001]
		3 * time.Millisecond,   // (0.0025, 0.005]
		7 * time.Second,        // (5, 10]
		20 * time.Second,       // +Inf overflow
	}
	var sum float64
	for _, d := range obs {
		h.observe(d)
		sum += d.Seconds()
	}
	if got := h.count.Load(); got != int64(len(obs)) {
		t.Fatalf("count = %d, want %d", got, len(obs))
	}
	if got := float64(h.sumNanos.Load()) / 1e9; math.Abs(got-sum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, sum)
	}
	var sb strings.Builder
	writeHistogram(&sb, "h", "test", h)
	out := sb.String()
	// Cumulative counts at key boundaries.
	for _, want := range []string{
		`h_bucket{le="0.0005"} 0`,
		`h_bucket{le="0.001"} 1`,
		`h_bucket{le="0.005"} 2`,
		`h_bucket{le="5"} 2`,
		`h_bucket{le="10"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("histogram output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromFormat(t *testing.T) {
	m := newMetrics()
	m.requests.get(`endpoint="query",code="200"`).inc()
	m.queries.get(`outcome="ok"`).inc()
	m.shed.get(`reason="queue_full"`).inc()
	m.queryDur.observe(2 * time.Millisecond)
	m.ltjLeaps.add(42)
	m.indexTriples.set(1000)
	m.ready.set(1)

	var sb strings.Builder
	m.writeProm(&sb, cacheStats{Hits: 3, Misses: 5, Entries: 2, Bytes: 128})
	out := sb.String()

	for _, want := range []string{
		`ringserve_requests_total{endpoint="query",code="200"} 1`,
		`ringserve_queries_total{outcome="ok"} 1`,
		`ringserve_admission_shed_total{reason="queue_full"} 1`,
		`ringserve_query_duration_seconds_count 1`,
		`ringserve_cache_hits_total 3`,
		`ringserve_cache_misses_total 5`,
		`ringserve_cache_entries 2`,
		`ringserve_cache_bytes 128`,
		`ringserve_ltj_leaps_total 42`,
		`ringserve_index_triples 1000`,
		`ringserve_ready 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every series line must be "# ..." metadata or "name[{labels}] value",
	// and the families are exactly the ones listed: a series added or
	// removed has to show up here.
	var families []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "ringserve_") {
			t.Fatalf("series %q lacks the ringserve_ prefix", line)
		}
	}
	wantFamilies := []string{
		"ringserve_requests_total", "ringserve_queries_total", "ringserve_admission_shed_total",
		"ringserve_in_flight", "ringserve_admission_queue_depth", "ringserve_ready",
		"ringserve_query_duration_seconds",
		"ringserve_mutations_total", "ringserve_mutation_triples_total", "ringserve_mutation_duration_seconds",
		"ringserve_cache_hits_total", "ringserve_cache_misses_total", "ringserve_cache_evictions_total",
		"ringserve_cache_invalidations_total", "ringserve_cache_entries", "ringserve_cache_bytes",
		"ringserve_ltj_leaps_total", "ringserve_ltj_binds_total", "ringserve_ltj_seeks_total",
		"ringserve_ltj_enumerations_total", "ringserve_ltj_batch_descents_total", "ringserve_ltj_batch_emits_total",
		"ringserve_index_triples", "ringserve_index_distinct_subjects",
		"ringserve_index_distinct_predicates", "ringserve_index_distinct_objects",
	}
	if !slices.Equal(families, wantFamilies) {
		t.Fatalf("metric families = %v\nwant %v", families, wantFamilies)
	}
}
