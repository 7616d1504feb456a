package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/persist"
)

// newLiveServer opens a persist.DB in a temp dir and serves it.
func newLiveServer(t testing.TB, opt persist.Options) (*Server, *httptest.Server, *persist.DB) {
	t.Helper()
	db, err := persist.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, err := New(Config{AccessLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetLive(db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, db
}

func postMutation(t testing.TB, ts *httptest.Server, path string, req MutationRequest) (*MutationResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var mr MutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	return &mr, resp.StatusCode
}

func triples(ts ...[3]string) []TripleJSON {
	out := make([]TripleJSON, len(ts))
	for i, t := range ts {
		out[i] = TripleJSON{S: t[0], P: t[1], O: t[2]}
	}
	return out
}

func TestLiveInsertQueryDelete(t *testing.T) {
	_, ts, _ := newLiveServer(t, persist.Options{})

	mr, code := postMutation(t, ts, "/insert", MutationRequest{Triples: triples(
		[3]string{"alice", "knows", "bob"},
		[3]string{"bob", "knows", "carol"},
	)})
	if code != http.StatusOK {
		t.Fatalf("sync insert: status %d, want 200", code)
	}
	if mr.Applied != 2 || !mr.Synced {
		t.Fatalf("sync insert: %+v", mr)
	}

	qr, code := postQuery(t, ts, QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}})
	if code != http.StatusOK || qr.Count != 2 {
		t.Fatalf("query after insert: code %d resp %+v", code, qr)
	}

	// Duplicate insert applies nothing but still succeeds.
	mr, code = postMutation(t, ts, "/insert", MutationRequest{Triples: triples(
		[3]string{"alice", "knows", "bob"},
	)})
	if code != http.StatusOK || mr.Applied != 0 {
		t.Fatalf("duplicate insert: code %d resp %+v", code, mr)
	}

	// Async insert: 202, applied immediately (visibility ahead of fsync).
	async := false
	mr, code = postMutation(t, ts, "/insert", MutationRequest{
		Triples: triples([3]string{"carol", "knows", "dave"}),
		Sync:    &async,
	})
	if code != http.StatusAccepted {
		t.Fatalf("async insert: status %d, want 202", code)
	}
	if mr.Synced {
		t.Fatalf("async insert reported synced: %+v", mr)
	}
	qr, _ = postQuery(t, ts, QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}})
	if qr.Count != 3 {
		t.Fatalf("async insert not visible: count %d, want 3", qr.Count)
	}

	mr, code = postMutation(t, ts, "/delete", MutationRequest{Triples: triples(
		[3]string{"alice", "knows", "bob"},
		[3]string{"never", "was", "there"},
	)})
	if code != http.StatusOK || mr.Applied != 1 {
		t.Fatalf("delete: code %d resp %+v", code, mr)
	}
	qr, _ = postQuery(t, ts, QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}})
	if qr.Count != 2 {
		t.Fatalf("delete not visible: count %d, want 2", qr.Count)
	}
}

func TestLiveMutationValidation(t *testing.T) {
	_, ts, _ := newLiveServer(t, persist.Options{})
	cases := []MutationRequest{
		{},
		{Triples: []TripleJSON{{S: "", P: "p", O: "o"}}},
		{Triples: []TripleJSON{{S: "?x", P: "p", O: "o"}}},
		{Triples: []TripleJSON{{S: "a\nb", P: "p", O: "o"}}},
		{Triples: []TripleJSON{{S: "a", P: "p", O: "o\x00"}}},
	}
	for i, req := range cases {
		if _, code := postMutation(t, ts, "/insert", req); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/insert")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert: status %d, want 405", resp.StatusCode)
	}
}

func TestStaticServerRefusesMutations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, code := postMutation(t, ts, "/insert", MutationRequest{
		Triples: triples([3]string{"a", "p", "b"}),
	}); code != http.StatusNotImplemented {
		t.Fatalf("static /insert: status %d, want 501", code)
	}
}

// TestLiveMutationsDuringRecovery: a live-mode server whose data dir is
// still recovering answers mutations with a retryable 503 (plus
// Retry-After), not the read-only 501 — the state is transient.
func TestLiveMutationsDuringRecovery(t *testing.T) {
	srv, err := New(Config{AccessLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	srv.ExpectLive() // -data-dir boot path: recovery has not finished
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(MutationRequest{Triples: triples([3]string{"a", "p", "b"})})
	resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/insert during recovery: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/insert during recovery: missing Retry-After")
	}

	// Once the DB is installed, the same request succeeds.
	db, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := srv.SetLive(db); err != nil {
		t.Fatal(err)
	}
	if _, code := postMutation(t, ts, "/insert", MutationRequest{
		Triples: triples([3]string{"a", "p", "b"}),
	}); code != http.StatusOK {
		t.Fatalf("/insert after SetLive: status %d, want 200", code)
	}
}

// TestLiveNoStaleCache: a cached result must never be served after a
// batch that changes the answer — the generation-prefixed cache key is
// what guarantees it.
func TestLiveNoStaleCache(t *testing.T) {
	_, ts, _ := newLiveServer(t, persist.Options{})
	postMutation(t, ts, "/insert", MutationRequest{Triples: triples(
		[3]string{"alice", "knows", "bob"},
	)})

	q := QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}}
	qr, _ := postQuery(t, ts, q)
	if qr.Count != 1 {
		t.Fatalf("first query: count %d", qr.Count)
	}
	qr, _ = postQuery(t, ts, q)
	if !qr.Cached {
		t.Fatalf("second identical query not cached")
	}

	postMutation(t, ts, "/insert", MutationRequest{Triples: triples(
		[3]string{"bob", "knows", "carol"},
	)})
	qr, _ = postQuery(t, ts, q)
	if qr.Cached {
		t.Fatal("stale cache hit across an applied batch")
	}
	if qr.Count != 2 {
		t.Fatalf("query after insert: count %d, want 2", qr.Count)
	}
}

// TestLiveConcurrentReadersDuringCompaction is the serving acceptance
// check: with a tiny memtable (forcing constant flushes and merges) and
// a checkpoint mid-burst, concurrent readers must see no 5xx and no
// stale counts beyond the writer's progress.
func TestLiveConcurrentReadersDuringCompaction(t *testing.T) {
	_, ts, db := newLiveServer(t, persist.Options{MemtableThreshold: 16, MaxRings: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var readerErr error
	setErr := func(err error) {
		mu.Lock()
		if readerErr == nil {
			readerErr = err
		}
		mu.Unlock()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(QueryRequest{
					Pattern: []PatternJSON{{S: "?x", P: "p0", O: "?y"}},
				})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					setErr(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					setErr(fmt.Errorf("reader got %d during compaction", resp.StatusCode))
					return
				}
				// The dictionary snapshot a response decodes through is
				// taken after its evaluation, so it holds every term.
				if bytes.Contains(raw, []byte(`"#`)) {
					setErr(fmt.Errorf("reader got an undecoded identifier: %s", raw))
					return
				}
			}
		}()
	}

	total := 0
	for batch := 0; batch < 30; batch++ {
		ops := make([]TripleJSON, 10)
		for i := range ops {
			ops[i] = TripleJSON{S: fmt.Sprintf("s%d", total), P: "p0", O: fmt.Sprintf("o%d", total)}
			total++
		}
		if _, code := postMutation(t, ts, "/insert", MutationRequest{Triples: ops}); code != http.StatusOK {
			t.Fatalf("insert batch %d: status %d", batch, code)
		}
		if batch == 15 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("mid-burst checkpoint: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}

	qr, code := postQuery(t, ts, QueryRequest{
		Pattern: []PatternJSON{{S: "?x", P: "p0", O: "?y"}},
		Limit:   total + 10,
	})
	if code != http.StatusOK || qr.Count != total {
		t.Fatalf("final count %d (status %d), want %d", qr.Count, code, total)
	}
}

func TestLiveStatsAndMetrics(t *testing.T) {
	_, ts, _ := newLiveServer(t, persist.Options{})
	postMutation(t, ts, "/insert", MutationRequest{Triples: triples(
		[3]string{"a", "p", "b"},
	)})

	body, code := getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Persist == nil {
		t.Fatal("/stats missing persist section in live mode")
	}
	if stats.Persist.WALBatches == 0 {
		t.Fatalf("persist stats show no WAL batches: %+v", stats.Persist)
	}

	metrics, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, series := range []string{
		"ringserve_wal_appended_total",
		"ringserve_wal_fsync_seconds_bucket",
		"ringserve_memtable_triples",
		"ringserve_static_rings",
		"ringserve_compactions_total",
		"ringserve_recovery_replayed_total",
		"ringserve_index_generation",
		"ringserve_mutations_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}
