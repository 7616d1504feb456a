package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	var vs []float64
	for i := 1; i <= 200; i++ {
		vs = append(vs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4) gives:
// that is the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{10.5, 9.8, 11.2, 10.1, 10.9, 10.0, 10.4}, [3]float64{10.0, 10.4, 10.9}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestMixIsDeterministicUnderASeed(t *testing.T) {
	draw := func(seed int64, client int) []int {
		m := newMixer(seed, client, fullScale)
		out := make([]int, 20000)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and client gave two different request sequences")
	}
	if reflect.DeepEqual(a, draw(7, 1)) || reflect.DeepEqual(a, draw(8, 0)) {
		t.Fatal("another client or seed repeated the sequence")
	}
	hot := 0
	for _, q := range a {
		if q < 0 || q >= fullScale.hotPool+fullScale.coldPool {
			t.Fatalf("query index %d outside the pool", q)
		}
		if q < fullScale.hotPool {
			hot++
		}
	}
	if share := float64(hot) / float64(len(a)); math.Abs(share-fullScale.hotShare) > 0.02 {
		t.Errorf("hot share %.3f, want %.2f", share, fullScale.hotShare)
	}
}

// The query log belongs to the dataset: a seed reorders it and leaves its
// contents alone.
func TestSeedReordersTheQueryLog(t *testing.T) {
	log := func(seed int64) (ordered []string, set map[string]int) {
		e, err := buildWGPB(smokeScale.hotTriples, smokeScale.perShape, seed)
		if err != nil {
			t.Fatal(err)
		}
		set = map[string]int{}
		for _, q := range e.queries {
			s := q.shape + ":" + fmtPattern(q.pat)
			ordered = append(ordered, s)
			set[s]++
		}
		return ordered, set
	}
	a, setA := log(3)
	again, _ := log(3)
	b, setB := log(4)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two different orders")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("another seed replayed the log in the same order")
	}
	if !reflect.DeepEqual(setA, setB) {
		t.Error("another seed changed the query log itself")
	}
}

// -seconds buys a number of whole passes that the arguments alone fix, and
// every query is timed once per pass, in the same order each pass.
func TestPassesAreFixedByTheArguments(t *testing.T) {
	cfg := smokeConfig(t, "wgpb-cold", false)
	cfg.seconds, cfg.sc = 15, fullScale
	h := newHarness(cfg)
	if cold, hot := h.passes(fullScale.coldPassS), h.passes(fullScale.hotPassS); cold != 4 || hot != 9 {
		t.Errorf("15 s buy %d cold and %d hot passes, want 4 and 9", cold, hot)
	}
	e, err := buildWGPB(smokeScale.hotTriples, smokeScale.perShape, 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := e.evalPasses(3, nil)
	if len(samples) != 3*len(e.queries) {
		t.Fatalf("3 passes over %d queries timed %d", len(e.queries), len(samples))
	}
	for i, s := range samples {
		if s.q != i%len(e.queries) {
			t.Fatalf("sample %d is query %d, want %d", i, s.q, i%len(e.queries))
		}
	}
}

func fmtPattern(q graph.Pattern) string {
	var b strings.Builder
	for _, tp := range q {
		b.WriteString(tp.String())
	}
	return b.String()
}

func TestLadderSelfTimesTelescope(t *testing.T) {
	rungs := [][]float64{{10, 12, 11}, {15, 19, 16}, {40, 44, 41}, {90, 80, 85}}
	if got := selfTime(rungs[1], rungs[0]); got != 5 {
		t.Errorf("selfTime = %v, want 16-11", got)
	}
	total := median(rungs[0])
	for i := 1; i < len(rungs); i++ {
		total += selfTime(rungs[i], rungs[i-1])
	}
	if total != median(rungs[3]) {
		t.Errorf("self times sum to %v, the top rung's median is %v", total, median(rungs[3]))
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, smoke: true, sc: smokeScale, dir: t.TempDir(), log: io.Discard}
}

// A binding that names a triple the graph does not hold, and a count that
// disagrees with the timed run, must both land in fail_ratio.
func TestWrongAnswerRaisesFailRatio(t *testing.T) {
	h := newHarness(smokeConfig(t, "wgpb-hot", false))
	e, err := buildWGPB(smokeScale.hotTriples, smokeScale.perShape, 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := e.evalPasses(1, nil)
	h.finishWGPB(e, samples, 1)
	if h.failed != 0 || h.attempted != len(samples) {
		t.Fatalf("honest run: failed=%d attempted=%d of %d", h.failed, h.attempted, len(samples))
	}

	bad := graph.Binding{}
	for _, v := range e.queries[0].pat.Vars() {
		bad[v] = e.g.NumSO() + 5 // no such node
	}
	if why := checkBindings(e.g, e.queries[0].pat, []graph.Binding{bad}); why == "" {
		t.Error("checkBindings accepted a binding outside the graph")
	}

	h2 := newHarness(smokeConfig(t, "wgpb-hot", false))
	samples[0].count-- // the timed run "saw" one solution fewer than there are
	h2.finishWGPB(e, samples, 1)
	if h2.failed != 1 {
		t.Errorf("a wrong count failed %d operations, want 1 (notes: %v)", h2.failed, h2.notes)
	}
	if got := h2.metrics["queries_per_s"].Value; got >= h.metrics["queries_per_s"].Value {
		t.Errorf("queries_per_s counted the wrong answer: %v vs %v", got, h.metrics["queries_per_s"].Value)
	}
}

// An acknowledgement for a write the store never made durable must be
// found by the reopen check.
func TestDroppedAckRaisesFailRatio(t *testing.T) {
	h := newHarness(smokeConfig(t, "live-mixed", false))
	e, err := h.buildLive(1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sent := len(e.writes) / 2
	all := e.writes
	e.writes = all[:sent]
	c := newClient(e.front.url)
	defer c.close()
	acks := e.writeLoop(c, 1000, time.Now(), nil)
	for i, a := range acks {
		if !a.acked {
			t.Fatalf("write %d was not acknowledged", i)
		}
	}
	e.writes = all
	forged := append(acks, writeSample{acked: true}) // write `sent` was never sent
	if all[sent].path != "/insert" {
		t.Fatalf("test wants write %d to be an insert", sent)
	}
	lost, _, err := h.verifyDurable(e, forged)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 1 {
		t.Errorf("reopen found %d lost acknowledged writes, want 1", lost)
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(in []struct{ Name string }) []string {
		out := make([]string, len(in))
		for i, m := range in {
			out[i] = m.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the program emits %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the program emits %v", got, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke drives all four workloads, untraced and traced, the ladder and
// compare end to end at the 20k-triple scale.
func TestSmoke(t *testing.T) {
	runs := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.name, trace)
			cfg.out, cfg.md = runs, true
			rec, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempt == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d invalid=%q notes=%v", w.name, trace, rec.Correct, rec.Failed, rec.Attempt, rec.Invalid, rec.Notes)
			}
			var out bytes.Buffer
			if err := rec.emit(&out, cfg); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.name, trace, err)
			}
			declared := endToEnd
			if trace {
				declared = perLayer
			}
			if len(last.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: last line has %d metrics, want %d", w.name, trace, len(last.Metrics), len(declared))
			}
			for _, n := range endToEnd {
				if !trace && last.Metrics[n].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, n, last.Metrics[n].Value)
				}
			}
			if _, ok := rec.Metrics["fail_ratio"]; !ok {
				t.Errorf("%s trace=%v: fail_ratio not printed", w.name, trace)
			}
			if !trace {
				continue
			}
			if _, err := os.Stat(filepath.Join(cfg.dir, "trace.json")); err != nil {
				t.Errorf("%s: no trace.json: %v", w.name, err)
			}
			want := []string{"ltj.P2_p50_ms", "ltj.S4_p50_ms"}
			if strings.HasPrefix(w.name, "wgpb") {
				if strings.Contains(out.String(), "server handler") {
					t.Errorf("%s: the markdown table lists a rung the workload does not have", w.name)
				}
			} else {
				want = []string{"ltj.evaluate_us", "query.select_self_us", "wcoring.compile_us", "wcoring.decode_self_us",
					"server.handler_self_us", "server.socket_self_us", "server.cache_hit_ratio", "dict.decode_binding_ns"}
				sumSelf := 0.0
				for _, n := range want[:6] {
					sumSelf += rec.Metrics[n].Value
				}
				if top := rec.Metrics["server.socket_rung_us"].Value; math.Abs(sumSelf-top) > 0.1*top {
					t.Errorf("%s: ladder self times sum to %.1f µs, the socket rung is %.1f µs", w.name, sumSelf, top)
				}
				if !strings.Contains(out.String(), "| server handler") {
					t.Errorf("%s: -md printed no attribution table", w.name)
				}
			}
			if w.name == "live-mixed" {
				want = append(want, "write_ack_p50_ms", "persist.write_ack_p99_ms", "persist.fsyncs_per_batch", "persist.reopen_ms",
					"persist.checkpoint_ms", "dynamic.union_leap_ns", "dynamic.union1_leap_ns", "harness.sched_late_p99_ms")
			}
			if w.name == "serve-socket" {
				want = append(want, "wcoring.read_store_ms", "wcoring.view_store_ms", "mman.map_ms")
			}
			for _, n := range want {
				if _, ok := rec.Metrics[n]; !ok {
					t.Errorf("%s: traced run did not report %s", w.name, n)
				}
			}
		}
	}

	testCompare(t, runs)
}

// testCompare drives `ringbench compare` over the run file TestSmoke wrote:
// a file against itself is "same" on every row; a copy edited to be worse
// in one judged metric exits 1; input that cannot be judged exits 2.
func testCompare(t *testing.T, runs string) {
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	spec, err := loadSpec(bench)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := loadRecords(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*len(workloads) {
		t.Fatalf("run file holds %d records, want %d", len(recs), 2*len(workloads))
	}
	var table bytes.Buffer
	if worse, err := compare(&table, spec, recs, recs); err != nil || worse != 0 || strings.Contains(table.String(), verdictWorse) {
		t.Errorf("a file compared with itself: %d rows worse, err %v\n%s", worse, err, table.String())
	}
	// The header, the declared metrics and fail_ratio on every workload, and
	// write_ack_p50_ms on live-mixed.
	if rows := strings.Count(table.String(), "\n"); rows != 1+len(workloads)*(len(endToEnd)+1)+1 {
		t.Errorf("compare printed %d lines:\n%s", rows, table.String())
	}
	scaled := func(workload, name string, f float64) func(*record) bool {
		return func(r *record) bool {
			if r.Workload == workload && r.Trace == 0 {
				m := r.Metrics[name]
				m.Value *= f
				r.Metrics[name] = m
			}
			return true
		}
	}
	for _, c := range []struct {
		name string
		edit func(r *record) (keep bool)
		want int
	}{
		{"query_p50_ms doubled", scaled("wgpb-hot", "query_p50_ms", 2), 1},
		{"write_ack_p50_ms doubled", scaled("live-mixed", "write_ack_p50_ms", 2), 1},
		{"index_bytes_per_triple up by half a percent", scaled("serve-socket", "index_bytes_per_triple", 1.005), 1},
		{"a failed operation", func(r *record) bool {
			if r.Workload == "wgpb-cold" && r.Trace == 0 {
				r.Metrics["fail_ratio"] = metric{Value: 1 / float64(r.Attempt), Unit: "ratio"}
			}
			return true
		}, 1},
		{"a workload without a run", func(r *record) bool { return r.Workload != "live-mixed" }, 2},
		{"an invalid measurement", func(r *record) bool {
			if r.Workload == "serve-socket" {
				r.Invalid = "cache-hit ratio 0.500 is outside [0.20, 0.35]"
			}
			return true
		}, 2},
	} {
		edited := filepath.Join(t.TempDir(), "edited.jsonl")
		f, err := os.Create(edited)
		if err != nil {
			t.Fatal(err)
		}
		again, err := loadRecords(runs) // fresh maps: an edit must not leak into the next case
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if c.edit(&again[i]) {
				line, _ := json.Marshal(again[i])
				f.Write(append(line, '\n'))
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if code := compareMain([]string{"-bench", bench, runs, edited}); code != c.want {
			t.Errorf("%s: compare exit code %d, want %d", c.name, code, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	shift := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"within bound", steady, shift(steady, 1.03), true, verdictSame},
		{"slower beyond bound", steady, shift(steady, 1.2), true, verdictWorse},
		{"faster", steady, shift(steady, 0.5), true, verdictSame},
		{"throughput fell", steady, shift(steady, 0.8), false, verdictWorse},
		{"throughput rose", steady, shift(steady, 1.3), false, verdictSame},
		{"spread wider than bound", noisy, shift(noisy, 1.03), true, verdictUnresolved},
		{"worse even through the noise", noisy, shift(noisy, 3), true, verdictWorse},
	} {
		if _, got := judge(c.a, c.b, c.lower, 0.05); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
