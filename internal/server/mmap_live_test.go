package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	wcoring "repro"
	"repro/internal/persist"
)

// canonQuery runs an ordered, deterministic query and flattens the
// solutions for comparison.
func canonQuery(t *testing.T, ts *httptest.Server, pattern []PatternJSON) string {
	t.Helper()
	qr, code := postQuery(t, ts, QueryRequest{Pattern: pattern, NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	keys := make([]string, 0, len(qr.Solutions))
	for _, sol := range qr.Solutions {
		vars := make([]string, 0, len(sol))
		for k, v := range sol {
			vars = append(vars, k+"="+v)
		}
		sort.Strings(vars)
		keys = append(keys, strings.Join(vars, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestLiveMmapDifferential drives a mutation/checkpoint schedule through
// a live server and, after every phase — including the checkpoint that
// swaps heap rings for view-loaded mappings — compares its answers with
// a static server over wcoring.NewStore of the same triples: an
// in-memory reference that shares no load code with the live server.
func TestLiveMmapDifferential(t *testing.T) {
	_, live, db := newLiveServer(t, persist.Options{
		MemtableThreshold: 8, MaxRings: 64, NoBackground: true,
	})
	model := map[TripleJSON]bool{}

	queries := [][]PatternJSON{
		{{S: "?x", P: "knows", O: "?y"}},
		{{S: "?x", P: "knows", O: "?y"}, {S: "?y", P: "knows", O: "?z"}},
		{{S: "?x", P: "?p", O: "?y"}},
	}
	check := func(phase string) {
		t.Helper()
		var trs []wcoring.StringTriple
		for tr := range model {
			trs = append(trs, wcoring.StringTriple{S: tr.S, P: tr.P, O: tr.O})
		}
		st, err := wcoring.NewStore(trs, wcoring.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, ref := newTestServer(t, Config{Store: st})
		for qi, q := range queries {
			want := canonQuery(t, ref, q)
			got := canonQuery(t, live, q)
			if got != want {
				t.Fatalf("%s query %d: live %q, reference %q", phase, qi, got, want)
			}
		}
	}
	mutate := func(path string, trs []TripleJSON) {
		t.Helper()
		if _, code := postMutation(t, live, path, MutationRequest{Triples: trs}); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		for _, tr := range trs {
			if path == "/insert" {
				model[tr] = true
			} else {
				delete(model, tr)
			}
		}
	}
	checkpoint := func() {
		t.Helper()
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}

	var batch []TripleJSON
	for i := 0; i < 20; i++ {
		batch = append(batch, TripleJSON{S: fmt.Sprintf("n%d", i), P: "knows", O: fmt.Sprintf("n%d", (i+1)%20)})
	}
	mutate("/insert", batch)
	check("after inserts")

	checkpoint()
	check("after checkpoint swap")
	if db.Stats().MappedRings == 0 {
		t.Fatal("no mapped rings after checkpoint")
	}

	// Mutate across the installed views, checkpoint again, delete some.
	mutate("/insert", []TripleJSON{{S: "n0", P: "likes", O: "n5"}, {S: "n5", P: "likes", O: "n9"}})
	check("after post-swap inserts")
	mutate("/delete", []TripleJSON{{S: "n1", P: "knows", O: "n2"}})
	checkpoint()
	check("after delete and second checkpoint")
}

// TestLiveMmapObservability checks the serving metrics of the mapped
// load: /metrics must report a mapped byte count and a snapshot install
// time and no load-mode series, and /stats must carry the mapped
// section.
func TestLiveMmapObservability(t *testing.T) {
	_, ts, db := newLiveServer(t, persist.Options{
		MemtableThreshold: 8, MaxRings: 64, NoBackground: true,
	})
	var batch []TripleJSON
	for i := 0; i < 20; i++ {
		batch = append(batch, TripleJSON{S: fmt.Sprintf("n%d", i), P: "p", O: "o"})
	}
	if _, code := postMutation(t, ts, "/insert", MutationRequest{Triples: batch}); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	if strings.Contains(metrics, "load_mode") {
		t.Error("/metrics still exports a load-mode series")
	}
	for _, want := range []string{
		"ringserve_index_bytes_mapped",
		"ringserve_snapshot_install_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	stats := string(sbody)
	for _, want := range []string{`"mapped"`, `"bytes_mapped"`} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %q; body: %s", want, stats)
		}
	}
}
