package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. Values keep all their digits; rounding is
// the reader's business.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares: the
// last line of an untraced run carries exactly endToEnd, of a traced run
// exactly perLayer. perLayer holds the rungs every workload has (each one
// serves its queries from a ring through ltj); the rungs only some
// workloads have — the per-shape times, the HTTP ladder, the WAL — are
// printed by name and kept in the run record, not declared, so a declared
// metric never reads as a constant zero on a workload that lacks the layer.
var endToEnd = []string{
	"setup_s", "query_p50_ms", "query_p99_ms", "queries_per_s", "index_bytes_per_triple",
}

var perLayer = []string{
	"bits.select64_ns",
	"bitvector.plain.rank1_ns", "bitvector.plain.select1_ns",
	"bitvector.rrr.rank1_ns", "bitvector.rrr.select1_ns",
	"bitvector.sparse.rank1_ns", "bitvector.sparse.select1_ns",
	"wavelet.access_ns", "wavelet.rank_ns", "wavelet.select_ns", "wavelet.range_next_ns",
	"wavelet.next_values_ns_per_value", "wavelet.intersect_ranges_ns_per_value",
	"ring.new_pattern_state_ns", "ring.leap_s_ns", "ring.leap_p_ns", "ring.leap_o_ns",
	"ring.bind_ns", "ring.batch_leap_ns_per_value", "ring.cring_leap_ns", "ring.cring_bytes_per_triple",
	"ltj.evaluate_us", "ltj.leaps_per_query", "ltj.leaps_per_result", "ltj.seeks_per_query",
	"ltj.binds_per_query", "ltj.batch_descents_per_query", "ltj.batch_emits_per_descent", "ltj.timeouts",
	"query.select_self_us",
	"harness.peak_rss_mb", "harness.heap_after_setup_mb", "harness.trace_overhead_ratio", "harness.fail_ratio",
}

// scale sizes the four workloads. The full scale is what BENCHMARK.json
// runs; the smoke scale drives the same code in about a second per workload
// for `go test`.
type scale struct {
	coldTriples  int // wgpb-cold graph: ring ≫ L2, every wavelet level misses cache
	hotTriples   int // wgpb-hot graph: ring ≈ 2 MB, L2-resident
	serveTriples int // serve-socket store
	liveTriples  int // live-mixed preload
	perShape     int // WGPB instances per shape (the paper uses 50)
	coldVerify   int // wgpb-cold verifies one query in this many
	coldLadder   int // wgpb-cold replays one query in this many at the query.Select rung
	coldPool     int // serve: distinct cold queries
	hotPool      int // serve: distinct hot queries
	hotShare     float64
	hitLo, hitHi float64 // serve-socket: the cache-hit ratio the mix must land in
	ladderN      int     // requests each rung of the serving ladder replays
	writeRate    int     // live-mixed: batches per second, open loop
	batchSize    int     // live-mixed: triples per batch
	probeOps     int     // operations per micro-probe batch
	probeBatches int
	// What one pass over the WGPB query set takes on the reference host, in
	// seconds. -seconds buys round(seconds / passS) full passes: a count
	// fixed by the arguments, not by how fast the code under test runs.
	coldPassS, hotPassS float64
}

// The issue asks for 10M / 2M / 1M triples and 30 s per workload. The
// driver's cap (92 runs, set-up and verification included, inside 3420 s)
// leaves about 30 s a run with room for a slow host; so wgpb-cold is held at
// the 4M floor the issue allows (ring ≈ 47 MB, an order of magnitude over
// L2) and spends its time on four full passes, serve-socket is at 1M and
// the live-mixed preload at 200k (its preload path builds rings by repeated
// merges and costs 11 s at 1M).
var fullScale = scale{
	coldTriples: 4_000_000, hotTriples: 200_000, serveTriples: 1_000_000, liveTriples: 200_000,
	perShape: 50, coldVerify: 10, coldLadder: 5,
	coldPool: 8192, hotPool: 32, hotShare: 0.25, hitLo: 0.20, hitHi: 0.35, ladderN: 2000,
	writeRate: 20, batchSize: 250,
	probeOps: 50_000, probeBatches: 5,
	coldPassS: 4.2, hotPassS: 1.75,
}

var smokeScale = scale{
	coldTriples: 20_000, hotTriples: 20_000, serveTriples: 20_000, liveTriples: 20_000,
	perShape: 4, coldVerify: 2, coldLadder: 2,
	coldPool: 256, hotPool: 8, hotShare: 0.25, hitLo: 0, hitHi: 1, ladderN: 60,
	writeRate: 20, batchSize: 50,
	probeOps: 2_000, probeBatches: 3,
	coldPassS: 0.5, hotPassS: 0.5,
}

// dataset numbers the one dataset every run measures: the graph
// (wgpb.Generate) and the query log over it, fixed across runs as the
// paper's Wikidata graph and its 850 WGPB queries are. -seed draws what a
// client does with it: the order the log is replayed in, the request mix,
// the writes. Measured on this generator, graphs of different seeds differ
// by ±20 % in engine work per WGPB query (leaps + binds from ltj.EvalStats —
// the hubs of a Zipf sample are not stable) and 850-query samples over one
// graph by a quarter in their p99; either would bury every bound under the
// difference between inputs. The issue that first records a baseline on a
// second dataset turns this into a flag.
const dataset = 1

type config struct {
	workload string
	seed     int64 // draws replay order, request mix and writes
	seconds  float64
	trace    bool
	smoke    bool
	md       bool
	out      string // append the run record to this file ("" = none)
	dir      string // scratch directory for the data dir and trace.json
	sc       scale
	log      io.Writer // progress and the per-metric lines
}

// harness collects what one run reports.
type harness struct {
	cfg       config
	began     time.Time
	tr        *tracer // nil on an untraced run
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	samples   map[string]int
	sizes     map[string]float64
	notes     []string // verification findings, printed and recorded
	invalid   string   // why the run is not a valid measurement ("" = it is)
}

func newHarness(cfg config) *harness {
	h := &harness{cfg: cfg, began: time.Now(), metrics: map[string]metric{}, samples: map[string]int{}, sizes: map[string]float64{}}
	if cfg.trace {
		h.tr = newTracer(cfg.workload)
	}
	return h
}

func (h *harness) set(name string, v float64, unit string) {
	if _, ok := h.metrics[name]; !ok {
		h.names = append(h.names, name)
	}
	h.metrics[name] = metric{Value: v, Unit: unit}
}

// logf writes a progress line, stamped with the time since the run began.
func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.cfg.log, "[%6.1fs] "+format+"\n", append([]any{time.Since(h.began).Seconds()}, args...)...)
}

// note keeps a verification finding for the report; the first few are
// enough to start from.
func (h *harness) note(format string, args ...any) {
	if len(h.notes) < 20 {
		h.notes = append(h.notes, fmt.Sprintf(format, args...))
	}
}

// fail counts n failed operations.
func (h *harness) fail(n int, format string, args ...any) {
	if n > 0 {
		h.failed += n
		h.note(format, args...)
	}
}

// passes is how many full passes over a WGPB query set -seconds buys, given
// what one pass takes on the reference host.
func (h *harness) passes(passS float64) int {
	return max(1, int(h.cfg.seconds/passS+0.5))
}

// settle drops garbage from set-up (generator adjacency maps, edge lists)
// before the measured phase and records what stays resident.
func (h *harness) settle() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.sizes["heap_after_setup_mb"] = float64(ms.HeapAlloc) / (1 << 20)
}

// queryMetrics sets the three query metrics. n is how many latency values
// each percentile was taken over; the count beyond the p99 is printed with
// it so a reader can see how much tail the number rests on.
func (h *harness) queryMetrics(p50, p99, perSecond float64, n int) {
	h.set("query_p50_ms", p50, "ms")
	h.set("query_p99_ms", p99, "ms")
	h.set("queries_per_s", perSecond, "1/s")
	h.samples["percentile_over"] = n
	h.samples["beyond_p99"] = n - (n*99+99)/100
}

// peakRSSMB reads the process high-water mark; 0 where there is no procfs.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// harnessMetrics are the per-layer rows about the harness itself.
func (h *harness) harnessMetrics() {
	h.set("harness.peak_rss_mb", peakRSSMB(), "MB")
	h.set("harness.heap_after_setup_mb", h.sizes["heap_after_setup_mb"], "MB")
	h.set("harness.fail_ratio", float64(h.failed)/float64(max(h.attempted, 1)), "ratio")
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
