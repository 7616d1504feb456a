package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	wcoring "repro"
	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/query"
)

// encoderCase is one input of the encoder's differential check: three
// arbitrary terms (they fill both ID spaces of a dictionary), a
// comma-separated projection list, and bytes that pick the row count, the
// predicate-position variables and the identifiers.
type encoderCase struct {
	name             string
	t1, t2, t3, vars string
	sel              []byte
}

var encoderCases = []encoderCase{
	{"plain", "alice", "knows", "bob", "x,y", []byte{4, 0, 0, 1, 2, 0, 1, 2, 1}},
	{"html", "<a href='x'>", "a&b", ">", "x,y", []byte{3, 0, 0, 1, 2, 1, 0}},
	{"quote and backslash", `say "hi"`, `back\slash`, `\"`, "x,y,z", []byte{3, 5, 0, 1, 2, 2, 1, 0, 0, 0}},
	{"control bytes", "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f", "\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f", "del\x7f", "x,y,z", []byte{2, 2, 0, 1, 2, 2, 1, 0}},
	{"invalid utf-8", "\xff", "a\xc3(b", "\xe2\x82", "x,y,z", []byte{2, 1, 0, 1, 2, 2, 1, 0}},
	{"line separators", "a\u2028b", "\u2029", "caf\u00e9 \u65e5\u672c \U0001f600", "x,y,z", []byte{2, 4, 0, 1, 2, 2, 1, 0}},
	{"empty term", "", "p", "o", "x,y", []byte{3, 0, 0, 1, 2, 1, 0, 0}},
	{"hostile variable names", "s", "p", "o", "<v>,\"q\",\xff,\u2028,", []byte{2, 9, 0, 1, 2, 0, 1, 2, 0, 1, 2}},
	{"predicate-position variables", "s", "p", "o", "p,x,q", []byte{3, 0xff, 0, 0, 0, 1, 1, 1, 2, 2, 2}},
	{"identifiers out of range", "s", "p", "o", "x,p", []byte{3, 2, 3, 3, 7, 7, 200, 200}},
	{"duplicate projected names", "s", "p", "o", "x,y,x,x,y", []byte{3, 0, 0, 1, 2, 1, 0, 2}},
	{"names out of byte order", "s", "p", "o", "b,a,B,ab,\u00e9,_", []byte{2, 0, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1}},
	{"zero rows", "s", "p", "o", "x,y", []byte{0}},
	{"zero variables", "s", "p", "o", "", []byte{3}},
	{"zero rows and variables", "s", "p", "o", "", nil},
}

// checkEncoder holds appendSolutions to its contract: for rows over a
// dictionary, exactly the bytes json.Marshal gives for the maps
// dict.DecodeBinding builds from the same rows.
func checkEncoder(t *testing.T, c encoderCase) {
	t.Helper()
	d, _ := dict.Build([]dict.StringTriple{{S: c.t1, P: c.t2, O: c.t3}, {S: c.t3, P: c.t1, O: c.t2}})
	var vars []string
	if c.vars != "" {
		vars = strings.Split(c.vars, ",")
	}
	next := func() byte { // sel, read cyclically
		if len(c.sel) == 0 {
			return 0
		}
		b := c.sel[0]
		c.sel = append(c.sel[1:], b)
		return b
	}
	n := int(next()) % 5
	predBits := next()
	predVars := map[string]bool{}
	first := map[string]int{} // a name's first column: its repeats carry the same value
	for i, v := range vars {
		if _, ok := first[v]; !ok {
			first[v] = i
			predVars[v] = predBits>>(i%8)&1 == 1
		}
	}
	rows := query.Rows{Vars: vars, N: n}
	maps := make([]map[string]string, n)
	for i := range maps {
		row := make([]graph.ID, len(vars))
		b := graph.Binding{}
		for j, v := range vars {
			if first[v] == j {
				row[j] = graph.ID(next()) % 5 // both spaces hold fewer terms
				if row[j] == 4 {
					row[j] = graph.MaxID - graph.ID(next())
				}
			}
			row[j] = row[first[v]]
			b[v] = row[j]
		}
		rows.IDs = append(rows.IDs, row...)
		maps[i] = d.DecodeBinding(b, predVars)
	}
	want, err := json.Marshal(maps)
	if err != nil {
		t.Fatal(err)
	}
	got := appendSolutions([]byte("prefix"), rows, d, predVars)
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("vars %q, pred %v, ids %v:\n got %s\nwant prefix%s", vars, predVars, rows.IDs, got, want)
	}
}

func TestAppendSolutions(t *testing.T) {
	for _, c := range encoderCases {
		t.Run(c.name, func(t *testing.T) { checkEncoder(t, c) })
	}
	// Every single byte, and every byte after a multi-byte lead, as a term.
	for b := 0; b < 256; b++ {
		checkEncoder(t, encoderCase{t1: string([]byte{byte(b)}), t2: "\xe2\x80" + string([]byte{byte(b)}), t3: "o", vars: "x,y", sel: []byte{3, 2, 0, 1, 2}})
	}
}

func FuzzAppendSolutions(f *testing.F) {
	for _, c := range encoderCases {
		f.Add(c.t1, c.t2, c.t3, c.vars, c.sel)
	}
	f.Fuzz(func(t *testing.T, t1, t2, t3, vars string, sel []byte) {
		checkEncoder(t, encoderCase{t1: t1, t2: t2, t3: t3, vars: vars, sel: sel})
	})
}

// starStore holds hub --p--> leaf000..leaf(n-1), so that "hub p ?x" with a
// limit has exactly as many solutions as the test asks for.
func starStore(t testing.TB, n int) *wcoring.Store {
	t.Helper()
	triples := make([]wcoring.StringTriple, n)
	for i := range triples {
		triples[i] = wcoring.StringTriple{S: "hub", P: "p", O: fmt.Sprintf("leaf%04d", i)}
	}
	st, err := wcoring.NewStore(triples, wcoring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// discardResponse is the cheapest http.ResponseWriter there is, so the
// handler's own allocations are what AllocsPerRun sees.
type discardResponse struct{ h http.Header }

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardResponse) WriteHeader(int)             {}

// TestQueryAllocsPerSolution pins the row path: what one /query costs in
// allocations must not depend on how many solutions it returns, beyond the
// doublings of the row and response buffers. One map, string or interface
// value per solution anywhere between the engine and the Write — the shape
// this path replaced cost three maps each — adds at least 1 to the slope
// and fails here. A cache hit allocates a small constant.
func TestQueryAllocsPerSolution(t *testing.T) {
	const small, large = 100, 1600
	srv, err := New(Config{Store: starStore(t, large), AccessLog: io.Discard, MaxLimit: large})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	allocs := func(limit int, noCache bool) float64 {
		body, err := json.Marshal(QueryRequest{
			Pattern: []PatternJSON{{S: "hub", P: "p", O: "?x"}},
			Limit:   limit,
			NoCache: noCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{h: http.Header{}}
		return testing.AllocsPerRun(20, func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		})
	}
	missSmall, missLarge := allocs(small, true), allocs(large, true)
	slope := (missLarge - missSmall) / (large - small)
	t.Logf("cache miss: %.0f allocs at %d solutions, %.0f at %d (slope %.4f)", missSmall, small, missLarge, large, slope)
	// 16x the solutions is 4 more doublings of each growing buffer.
	if missLarge-missSmall > 16 {
		t.Errorf("a miss allocates %.0f times at %d solutions and %.0f at %d: something allocates per solution", missSmall, small, missLarge, large)
	}
	if missSmall > 150 {
		t.Errorf("a %d-solution miss allocates %.0f times, want a constant under 150", small, missSmall)
	}
	hitSmall, hitLarge := allocs(small, false), allocs(large, false)
	t.Logf("cache hit: %.0f allocs at %d solutions, %.0f at %d", hitSmall, small, hitLarge, large)
	if hitLarge > hitSmall+2 || hitSmall > 100 {
		t.Errorf("a hit allocates %.0f times at %d solutions and %.0f at %d, want one small constant", hitSmall, small, hitLarge, large)
	}
}

// TestResponseBytes checks the wire contract end to end, on a socket: the
// solutions array is json.Marshal of what the library returns for the same
// query, a cache hit carries the same bytes as the miss that filled it,
// the envelope around them decodes as QueryResponse, and the response is
// framed by Content-Length.
func TestResponseBytes(t *testing.T) {
	st := smallStore(t)
	_, ts := newTestServer(t, Config{Store: st})
	for _, tc := range []struct {
		name string
		req  QueryRequest
		opt  wcoring.SelectOptions
	}{
		{name: "join", req: QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}, {S: "?y", P: "likes", O: "?z"}}}},
		{name: "predicate variable", req: QueryRequest{Pattern: []PatternJSON{{S: "alice", P: "?p", O: "?o"}}}},
		{name: "all ground, holds", req: QueryRequest{Pattern: []PatternJSON{{S: "alice", P: "knows", O: "bob"}}}},
		{name: "all ground, fails", req: QueryRequest{Pattern: []PatternJSON{{S: "bob", P: "knows", O: "alice"}}}},
		{name: "unknown constant", req: QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "nobody"}}}},
		{name: "clauses", req: QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "?p", O: "?y"}}, Project: []string{"y", "p", "y"}, Distinct: true, OrderBy: []string{"y"}, Offset: 1, Limit: 3},
			opt: wcoring.SelectOptions{Project: []string{"y", "p", "y"}, Distinct: true, OrderBy: []string{"y"}, Offset: 1}},
	} {
		sols, err := st.Select(tc.req.patternStrings(), wcoring.SelectOptions{
			QueryOptions: wcoring.QueryOptions{Limit: effectiveLimit(tc.req.Limit, 1000, 0)},
			Project:      tc.opt.Project, Distinct: tc.opt.Distinct, OrderBy: tc.opt.OrderBy, Offset: tc.opt.Offset,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sols == nil {
			sols = []map[string]string{}
		}
		want, _ := json.Marshal(sols)

		body, _ := json.Marshal(tc.req)
		for _, cached := range []bool{false, true} {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v", tc.name, resp.StatusCode, err)
			}
			if resp.ContentLength != int64(len(raw)) || resp.Header.Get("Content-Type") != "application/json" {
				t.Errorf("%s: Content-Length %d for a %d-byte body, Content-Type %q", tc.name, resp.ContentLength, len(raw), resp.Header.Get("Content-Type"))
			}
			var env struct { // QueryResponse, its solutions kept raw
				Solutions json.RawMessage `json:"solutions"`
				Count     int             `json:"count"`
				ElapsedMS float64         `json:"elapsed_ms"`
				Cached    bool            `json:"cached"`
				TimedOut  bool            `json:"timed_out"`
				Stats     *StatsJSON      `json:"stats"`
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("%s: envelope %s: %v", tc.name, raw, err)
			}
			if !bytes.Equal(env.Solutions, want) {
				t.Errorf("%s (cached=%v): solutions\n got %s\nwant %s", tc.name, cached, env.Solutions, want)
			}
			// An infeasible query is answered before the cache is consulted.
			wantCached := cached && tc.name != "unknown constant"
			if env.Count != len(sols) || env.Cached != wantCached || env.TimedOut || (env.Stats == nil) != (wantCached || tc.name == "unknown constant") {
				t.Errorf("%s (cached=%v): envelope %s", tc.name, cached, raw)
			}
		}
	}
}
