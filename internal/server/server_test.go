package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	wcoring "repro"
)

// smallStore holds a tiny social graph with exactly known join results.
func smallStore(t testing.TB) *wcoring.Store {
	t.Helper()
	st, err := wcoring.NewStore([]wcoring.StringTriple{
		{S: "alice", P: "knows", O: "bob"},
		{S: "bob", P: "knows", O: "carol"},
		{S: "carol", P: "knows", O: "dave"},
		{S: "alice", P: "likes", O: "carol"},
		{S: "bob", P: "likes", O: "dave"},
	}, wcoring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var (
	heavyOnce sync.Once
	heavySt   *wcoring.Store
	heavyErr  error
)

// heavyStore is a dense random graph whose 3-hop all-variable join has far
// more solutions than any test will wait for — the knob that makes
// deadline, shedding and cancellation observable.
func heavyStore(t testing.TB) *wcoring.Store {
	t.Helper()
	heavyOnce.Do(func() {
		rng := rand.New(rand.NewSource(7))
		seen := map[wcoring.StringTriple]bool{}
		triples := make([]wcoring.StringTriple, 0, 20000)
		for len(triples) < 20000 {
			tr := wcoring.StringTriple{
				S: fmt.Sprintf("n%03d", rng.Intn(200)),
				P: fmt.Sprintf("p%d", rng.Intn(4)),
				O: fmt.Sprintf("n%03d", rng.Intn(200)),
			}
			if !seen[tr] {
				seen[tr] = true
				triples = append(triples, tr)
			}
		}
		heavySt, heavyErr = wcoring.NewStore(triples, wcoring.Options{})
	})
	if heavyErr != nil {
		t.Fatal(heavyErr)
	}
	return heavySt
}

// newTestServer builds a server around cfg (Store and AccessLog filled in
// if unset) and wraps it in an httptest.Server.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = smallStore(t)
	}
	if cfg.AccessLog == nil {
		cfg.AccessLog = io.Discard
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postQuery(t testing.TB, ts *httptest.Server, req QueryRequest) (*QueryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr, resp.StatusCode
}

func getBody(t testing.TB, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// threeHop is the 3-hop all-variable join over heavyStore: with a huge
// limit it cannot finish within any deadline a test sets, so it pins an
// admission slot for as long as the test needs.
func threeHop() []PatternJSON {
	return []PatternJSON{
		{S: "?a", P: "?p", O: "?b"},
		{S: "?b", P: "?q", O: "?c"},
		{S: "?c", P: "?r", O: "?d"},
	}
}

// anchoredJoin is a selective 2-pattern join over heavyStore, anchored
// on one subject.
func anchoredJoin() []PatternJSON {
	return []PatternJSON{
		{S: "n000", P: "?p", O: "?b"},
		{S: "?b", P: "p0", O: "?c"},
	}
}

// waitMetrics polls /metrics until every wanted line is present.
func waitMetrics(t testing.TB, ts *httptest.Server, want ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := getBody(t, ts.URL+"/metrics")
		missing := ""
		for _, w := range want {
			if !strings.Contains(body, w+"\n") {
				missing = w
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q:\n%s", missing, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQueryPOST(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	qr, code := postQuery(t, ts, QueryRequest{
		Pattern: []PatternJSON{
			{S: "?x", P: "knows", O: "?y"},
			{S: "?y", P: "knows", O: "?z"},
		},
		OrderBy: []string{"x"},
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := []map[string]string{
		{"x": "alice", "y": "bob", "z": "carol"},
		{"x": "bob", "y": "carol", "z": "dave"},
	}
	if qr.Count != 2 || len(qr.Solutions) != 2 {
		t.Fatalf("count = %d, solutions = %v", qr.Count, qr.Solutions)
	}
	for i, w := range want {
		for k, v := range w {
			if qr.Solutions[i][k] != v {
				t.Fatalf("solution %d = %v, want %v", i, qr.Solutions[i], w)
			}
		}
	}
	if qr.Cached || qr.TimedOut {
		t.Fatalf("unexpected flags in %+v", qr)
	}
	if qr.Stats == nil || qr.Stats.Binds == 0 {
		t.Fatalf("missing engine stats: %+v", qr.Stats)
	}
}

func TestQueryGET(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := url.Values{
		"q":        {"?x knows ?y ; ?y knows ?z"},
		"project":  {"x"},
		"order_by": {"x"},
	}
	body, code := getBody(t, ts.URL+"/query?"+q.Encode())
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 2 || qr.Solutions[0]["x"] != "alice" || len(qr.Solutions[0]) != 1 {
		t.Fatalf("solutions = %v", qr.Solutions)
	}
}

// TestDistinctOrderByNoCache: the clauses that change how a result is
// produced (dedup, sort, cache bypass) all answer correctly.
func TestDistinctOrderByNoCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	knows := []PatternJSON{{S: "?x", P: "knows", O: "?y"}}
	for name, req := range map[string]QueryRequest{
		"distinct": {Pattern: knows, Project: []string{"x"}, Distinct: true},
		"orderby":  {Pattern: knows, OrderBy: []string{"x"}},
		"nocache":  {Pattern: knows, NoCache: true},
	} {
		qr, code := postQuery(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if qr.Count != 3 {
			t.Fatalf("%s: count = %d, want 3", name, qr.Count)
		}
	}
}

// TestProjectOffsetLimitViews: projections and offset/limit windows of
// one pattern are exactly the corresponding view of its full result (the
// engine is deterministic in sequential mode).
func TestProjectOffsetLimitViews(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: heavyStore(t), CacheEntries: -1})
	full, code := postQuery(t, ts, QueryRequest{Pattern: anchoredJoin()})
	if code != http.StatusOK || full.Count < 5 {
		t.Fatalf("full result: status %d, %+v", code, full)
	}
	project := func(sols []map[string]string, v string) []map[string]string {
		out := make([]map[string]string, len(sols))
		for i, m := range sols {
			out[i] = map[string]string{v: m[v]}
		}
		return out
	}
	for name, tc := range map[string]struct {
		req  QueryRequest
		want []map[string]string
	}{
		"project b": {QueryRequest{Pattern: anchoredJoin(), Project: []string{"b"}}, project(full.Solutions, "b")},
		"project c": {QueryRequest{Pattern: anchoredJoin(), Project: []string{"c"}}, project(full.Solutions, "c")},
		"window":    {QueryRequest{Pattern: anchoredJoin(), Offset: 2, Limit: 3}, full.Solutions[2:5]},
		"limit 1":   {QueryRequest{Pattern: anchoredJoin(), Limit: 1}, full.Solutions[:1]},
	} {
		qr, code := postQuery(t, ts, tc.req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if !reflect.DeepEqual(qr.Solutions, tc.want) {
			t.Fatalf("%s: got %v\nwant %v", name, qr.Solutions, tc.want)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"empty pattern", QueryRequest{}},
		{"unknown project var", QueryRequest{
			Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}},
			Project: []string{"nope"},
		}},
		{"unknown order var", QueryRequest{
			Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}},
			OrderBy: []string{"nope"},
		}},
		{"negative limit", QueryRequest{
			Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}},
			Limit:   -1,
		}},
	}
	for _, tc := range cases {
		if _, code := postQuery(t, ts, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}
	// Malformed JSON and unknown fields are 400s too.
	for _, body := range []string{"{", `{"bogus_field": 1}`} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if body, code := getBody(t, ts.URL+"/query?q="); code != http.StatusBadRequest {
		t.Errorf("empty q: status = %d (%s), want 400", code, body)
	}
}

func TestQueryUnknownConstantIsEmpty(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	qr, code := postQuery(t, ts, QueryRequest{
		Pattern: []PatternJSON{{S: "zeus", P: "knows", O: "?y"}},
	})
	if code != http.StatusOK || qr.Count != 0 || qr.Solutions == nil {
		t.Fatalf("code = %d, resp = %+v; want 200 with empty (non-null) solutions", code, qr)
	}
}

func TestCacheHitFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}}

	first, _ := postQuery(t, ts, req)
	if first.Cached {
		t.Fatal("first query already cached")
	}
	second, _ := postQuery(t, ts, req)
	if !second.Cached {
		t.Fatal("second identical query not served from cache")
	}
	if second.Count != first.Count {
		t.Fatalf("cache returned %d solutions, engine %d", second.Count, first.Count)
	}

	// A syntactic variant (pattern order) of a join hits the same entry.
	join := QueryRequest{Pattern: []PatternJSON{
		{S: "?x", P: "knows", O: "?y"},
		{S: "?y", P: "likes", O: "?z"},
	}}
	if qr, _ := postQuery(t, ts, join); qr.Cached {
		t.Fatal("join unexpectedly cached")
	}
	flipped := QueryRequest{Pattern: []PatternJSON{
		{S: "?y", P: "likes", O: "?z"},
		{S: "?x", P: "knows", O: "?y"},
	}}
	if qr, _ := postQuery(t, ts, flipped); !qr.Cached {
		t.Fatal("reordered pattern missed the cache")
	}

	// no_cache bypasses both lookup and fill.
	req.NoCache = true
	if qr, _ := postQuery(t, ts, req); qr.Cached {
		t.Fatal("no_cache request served from cache")
	}
	req.NoCache = false

	// Invalidation drops the entries.
	resp, err := http.Post(ts.URL+"/cache/invalidate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate status = %d", resp.StatusCode)
	}
	if qr, _ := postQuery(t, ts, req); qr.Cached {
		t.Fatal("cache entry survived invalidation")
	}

	// GET /stats reflects the counter activity.
	body, code := getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	var stats struct {
		Triples int `json:"triples"`
		Cache   struct {
			Hits          int64 `json:"hits"`
			Invalidations int64 `json:"invalidations"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Triples != 5 || stats.Cache.Hits < 2 || stats.Cache.Invalidations != 1 {
		t.Fatalf("stats = %s", body)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	req := QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}}
	postQuery(t, ts, req)
	if qr, _ := postQuery(t, ts, req); qr.Cached {
		t.Fatal("disabled cache served a hit")
	}
	resp, err := http.Post(ts.URL+"/cache/invalidate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("invalidate on disabled cache: status = %d, want 404", resp.StatusCode)
	}
}

func TestReadyzLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: smallStore(t)})
	if body, code := getBody(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz = %d %q", code, body)
	}
	if _, code := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// A server constructed without a store is alive but not ready, and
	// sheds queries, until SetStore completes the async load.
	srv2, err := New(Config{AccessLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if body, code := getBody(t, ts2.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "loading") {
		t.Fatalf("pre-load readyz = %d %q", code, body)
	}
	if _, code := getBody(t, ts2.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("pre-load healthz = %d", code)
	}
	req := QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "?p", O: "?y"}}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts2.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-load query = %d, want 503", resp.StatusCode)
	}
	if err := srv2.SetStore(smallStore(t)); err != nil {
		t.Fatal(err)
	}
	if _, code := getBody(t, ts2.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("post-load readyz = %d", code)
	}
	if qr, code := postQuery(t, ts2, req); code != http.StatusOK || qr.Count != 5 {
		t.Fatalf("post-load query = %d %+v", code, qr)
	}
}

func TestSelfCheckRejectsNilProbe(t *testing.T) {
	// SetStore's probe query must succeed; a healthy store passes.
	srv, err := New(Config{AccessLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetStore(heavyStore(t)); err != nil {
		t.Fatalf("self-check rejected a healthy store: %v", err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: heavyStore(t), MaxLimit: 1 << 30})
	qr, code := postQuery(t, ts, QueryRequest{
		Pattern: []PatternJSON{
			{S: "?a", P: "?p", O: "?b"},
			{S: "?b", P: "?q", O: "?c"},
			{S: "?c", P: "?r", O: "?d"},
		},
		Limit:     1 << 30,
		TimeoutMS: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !qr.TimedOut {
		t.Skip("3-hop join finished within 1ms on this machine")
	}
	// Partial results with the flag set — the contract for deadline hits.
	if qr.Count != len(qr.Solutions) {
		t.Fatalf("count %d != %d solutions", qr.Count, len(qr.Solutions))
	}

	// A timed-out result must not poison the cache.
	if qr2, _ := postQuery(t, ts, QueryRequest{
		Pattern: []PatternJSON{
			{S: "?a", P: "?p", O: "?b"},
			{S: "?b", P: "?q", O: "?c"},
			{S: "?c", P: "?r", O: "?d"},
		},
		Limit:     1 << 30,
		TimeoutMS: 1,
	}); qr2.Cached {
		t.Fatal("timed-out result was cached")
	}
}

// TestHostileTimeoutIsCapped: a timeout_ms too large for a time.Duration
// used to convert to a negative one, slip under the MaxTimeout cap and
// reach the engine as "no deadline". It must be capped like any other.
func TestHostileTimeoutIsCapped(t *testing.T) {
	hostile := []int{9223372036855, math.MaxInt64/int(time.Millisecond) + 1, math.MaxInt64}
	for _, ms := range hostile {
		if d := effectiveTimeout(ms, 30*time.Second, time.Minute); d != time.Minute {
			t.Errorf("effectiveTimeout(%d) = %v, want the 1m cap", ms, d)
		}
		if d := effectiveTimeout(ms, 30*time.Second, 0); d <= 0 {
			t.Errorf("uncapped effectiveTimeout(%d) = %v, want a positive duration", ms, d)
		}
	}

	const maxTimeout = 100 * time.Millisecond
	_, ts := newTestServer(t, Config{Store: heavyStore(t), MaxLimit: 1 << 30, MaxTimeout: maxTimeout})
	client := &http.Client{Timeout: 30 * time.Second} // an unbounded evaluation fails the test instead of hanging it
	for _, ms := range hostile {
		body, err := json.Marshal(QueryRequest{Pattern: threeHop(), Limit: 1 << 30, TimeoutMS: ms, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("timeout_ms %d: %v (evaluation not bounded by MaxTimeout %v)", ms, err, maxTimeout)
		}
		var qr QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("timeout_ms %d: status %d, decode error %v", ms, resp.StatusCode, err)
		}
		if !qr.TimedOut {
			t.Errorf("timeout_ms %d: the 3-hop join finished (%d solutions in %v) instead of hitting the %v cap", ms, qr.Count, time.Since(start), maxTimeout)
		}
	}
}

func TestShedUnderLoad(t *testing.T) {
	// Capacity 1 with a single queue slot: under an 8-client burst most
	// requests must shed (MaxQueue 0 would mean "default", hence 1).
	_, ts := newTestServer(t, Config{
		Store:         heavyStore(t),
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     5 * time.Millisecond,
		MaxLimit:      1 << 30,
	})

	const clients = 8
	codes := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, code := postQuery(t, ts, QueryRequest{
				Pattern: []PatternJSON{
					{S: "?a", P: "?p", O: "?b"},
					{S: "?b", P: "?q", O: "?c"},
					{S: "?c", P: "?r", O: "?d"},
				},
				Limit:     1 << 30,
				TimeoutMS: 300,
				NoCache:   true,
			})
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for code := range codes {
		counts[code]++
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no query admitted under load: %v", counts)
	}
	if counts[http.StatusTooManyRequests]+counts[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("overload shed nothing: %v", counts)
	}
	for code := range counts {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d under load: %v", code, counts)
		}
	}

	// The shed counters made it to /metrics.
	body, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `ringserve_admission_shed_total{reason="queue_`) {
		t.Fatalf("metrics missing shed series:\n%s", body)
	}
}

// TestIdenticalQueriesQueueAndShed: concurrent identical cache misses are
// ordinary queries — each takes its own admission slot, so six of them
// against one busy slot and four queue places leave exactly two shed, and
// the four that run return the same solutions.
func TestIdenticalQueriesQueueAndShed(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Store:         heavyStore(t),
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueWait:     30 * time.Second,
		MaxLimit:      1 << 30,
	})

	// The plug holds the only slot until its client hangs up.
	plugCtx, unplug := context.WithCancel(context.Background())
	defer unplug()
	plugBody, _ := json.Marshal(QueryRequest{Pattern: threeHop(), Limit: 1 << 30, TimeoutMS: 30000, NoCache: true})
	plugReq, err := http.NewRequestWithContext(plugCtx, http.MethodPost, ts.URL+"/query", bytes.NewReader(plugBody))
	if err != nil {
		t.Fatal(err)
	}
	plugDone := make(chan struct{})
	go func() {
		defer close(plugDone)
		if resp, err := http.DefaultClient.Do(plugReq); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitMetrics(t, ts, "ringserve_in_flight 1")

	body, _ := json.Marshal(QueryRequest{Pattern: anchoredJoin()})
	type result struct {
		code  int
		retry string
		body  []byte
		err   error
	}
	const clients = 6
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), b, err}
		}()
	}
	// All six have met admission: four wait, two were turned away.
	waitMetrics(t, ts, "ringserve_admission_queue_depth 4", `ringserve_admission_shed_total{reason="queue_full"} 2`)
	unplug()
	<-plugDone

	var first *QueryResponse
	ok, shed := 0, 0
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		switch r.code {
		case http.StatusOK:
			ok++
			if bytes.Contains(r.body, []byte(`"shared"`)) {
				t.Fatalf("response carries a \"shared\" field: %s", r.body)
			}
			var qr QueryResponse
			if err := json.Unmarshal(r.body, &qr); err != nil {
				t.Fatal(err)
			}
			if qr.Count == 0 {
				t.Fatal("anchored join returned no solutions")
			}
			if first == nil {
				first = &qr
			} else if !reflect.DeepEqual(qr.Solutions, first.Solutions) {
				t.Fatal("identical queries returned different solutions")
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retry == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d: %s", r.code, r.body)
		}
	}
	if ok != 4 || shed != 2 {
		t.Fatalf("got %d ok / %d shed, want 4 / 2", ok, shed)
	}

	// The only shed reasons a query can meet are the admission and gate ones.
	metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, line := range strings.Split(metrics, "\n") {
		reason, found := strings.CutPrefix(line, `ringserve_admission_shed_total{reason="`)
		if !found {
			continue
		}
		switch reason[:strings.IndexByte(reason, '"')] {
		case "queue_full", "queue_timeout", "draining", "not_ready", "min_seq":
		default:
			t.Errorf("unknown shed reason in %q", line)
		}
	}
}

// TestConcurrentIdenticalQueries: with free slots, concurrent identical
// cache misses all evaluate and agree, and the next copy is a cache hit.
func TestConcurrentIdenticalQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: heavyStore(t), MaxConcurrent: 8, MaxQueue: 32})
	req := QueryRequest{Pattern: threeHop(), Limit: 5000}

	const clients = 8
	results := make([]*QueryResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, code := postQuery(t, ts, req)
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			results[i] = qr
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, qr := range results {
		if qr.Count != 5000 {
			t.Fatalf("client %d: count = %d, want 5000", i, qr.Count)
		}
		if !reflect.DeepEqual(qr.Solutions, results[0].Solutions) {
			t.Fatalf("client %d solutions differ from client 0", i)
		}
	}
	if qr, code := postQuery(t, ts, req); code != http.StatusOK || !qr.Cached {
		t.Fatalf("ninth copy: code %d, want a cache hit", code)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Store: heavyStore(t), MaxLimit: 1 << 30})

	// Start a slow in-flight query...
	type result struct {
		qr   *QueryResponse
		code int
	}
	done := make(chan result, 1)
	go func() {
		qr, code := postQuery(t, ts, QueryRequest{
			Pattern: []PatternJSON{
				{S: "?a", P: "?p", O: "?b"},
				{S: "?b", P: "?q", O: "?c"},
				{S: "?c", P: "?r", O: "?d"},
			},
			Limit:     1 << 30,
			TimeoutMS: 400,
			NoCache:   true,
		})
		done <- result{qr, code}
	}()
	time.Sleep(60 * time.Millisecond) // let it get admitted

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	// New work is refused, readiness reports draining...
	if body, code := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz = %d %q", code, body)
	}
	if _, code := postQuery(t, ts, QueryRequest{
		Pattern: []PatternJSON{{S: "?a", P: "p0", O: "?b"}},
	}); code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503", code)
	}
	// ...but the in-flight query completes normally.
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight query during drain = %d, want 200", r.code)
	}
}

func TestClientDisconnectCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: heavyStore(t), MaxLimit: 1 << 30})
	body, _ := json.Marshal(QueryRequest{
		Pattern: []PatternJSON{
			{S: "?a", P: "?p", O: "?b"},
			{S: "?b", P: "?q", O: "?c"},
			{S: "?c", P: "?r", O: "?d"},
		},
		Limit:     1 << 30,
		TimeoutMS: 5000,
		NoCache:   true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		// The query finished before the cancel landed; nothing to assert.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Skip("query completed before client disconnect")
	}

	// The handler notices the disconnect and records outcome="cancelled";
	// the handler finishes asynchronously, so poll the metrics.
	deadline := time.Now().Add(10 * time.Second)
	for {
		metrics, _ := getBody(t, ts.URL+"/metrics")
		if strings.Contains(metrics, `ringserve_queries_total{outcome="cancelled"}`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled outcome never surfaced in metrics:\n%s", metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}}
	postQuery(t, ts, req)
	postQuery(t, ts, req) // cache hit

	body, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	for _, want := range []string{
		`ringserve_queries_total{outcome="ok"} 1`,
		`ringserve_queries_total{outcome="cache_hit"} 1`,
		`ringserve_cache_hits_total 1`,
		`ringserve_cache_misses_total 1`,
		`ringserve_index_triples 5`,
		`ringserve_ready 1`,
		`ringserve_requests_total{endpoint="query",code="200"} 2`,
		"ringserve_query_duration_seconds_count 2",
		"ringserve_ltj_binds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestConcurrentClients is the -race stress lane: many clients hammering
// the full request path (cache hits and misses, both methods, stats and
// metrics scrapes) against one server.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	queries := []QueryRequest{
		{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}},
		{Pattern: []PatternJSON{{S: "?x", P: "likes", O: "?y"}}},
		{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}, {S: "?y", P: "knows", O: "?z"}}},
		{Pattern: []PatternJSON{{S: "alice", P: "?p", O: "?y"}}, NoCache: true},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch i % 5 {
				case 4:
					if g%2 == 0 {
						getBody(t, ts.URL+"/metrics")
					} else {
						getBody(t, ts.URL+"/stats")
					}
				default:
					qr, code := postQuery(t, ts, queries[(g+i)%len(queries)])
					if code != http.StatusOK {
						t.Errorf("query status = %d", code)
						return
					}
					if qr.Count != len(qr.Solutions) {
						t.Errorf("inconsistent count %d vs %d", qr.Count, len(qr.Solutions))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
