package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	wcoring "repro"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/mman"
	"repro/internal/query"
	"repro/internal/server"
)

// stack is the library half of the ladder, over a static store or a live
// DB: the functions the server's own index interface calls, in the order a
// request goes down through them.
type stack struct {
	iters   func() ltj.Index // pins one consistent view per evaluation
	compile func([]wcoring.PatternString) (graph.Pattern, map[string]bool, bool, error)
	decode  func(graph.Binding, map[string]bool) map[string]string
	// selectStrings is the string-level rung: compile, query.Select, decode.
	selectStrings func(strs []wcoring.PatternString) ([]map[string]string, error)
}

func (e *serveEnv) stack() stack {
	if e.db == nil {
		r := e.store.Ring()
		idx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return r.NewPatternState(tp) })
		return stack{
			iters:   func() ltj.Index { return idx },
			compile: e.store.Compile,
			decode:  e.store.Dictionary().DecodeBinding,
			selectStrings: func(strs []wcoring.PatternString) ([]map[string]string, error) {
				return e.store.Select(strs, wcoring.SelectOptions{QueryOptions: wcoring.QueryOptions{Limit: serveLimit, Timeout: serveTimeout}})
			},
		}
	}
	st := stack{
		iters:   func() ltj.Index { return e.db.Snapshot() },
		compile: e.db.Compile,
		decode:  e.db.DecodeBinding,
	}
	// persist.DB has no Select of its own; this is the composition the
	// server's live index performs.
	st.selectStrings = func(strs []wcoring.PatternString) ([]map[string]string, error) {
		pat, predVars, feasible, err := st.compile(strs)
		if err != nil || !feasible {
			return nil, err
		}
		sols, err := query.Select{Pattern: pat, Limit: serveLimit, Timeout: serveTimeout}.Run(st.iters())
		if err != nil {
			return nil, err
		}
		out := make([]map[string]string, len(sols))
		for i, b := range sols {
			out[i] = st.decode(b, predVars)
		}
		return out, nil
	}
	return st
}

// selfTime is a rung's median minus the median of the rung below it.
func selfTime(rungUS, belowUS []float64) float64 { return median(rungUS) - median(belowUS) }

// ladder replays one request sequence at each layer boundary of the serving
// stack, cache off, one caller: ltj.Evaluate → query.Select.Run → the
// string-level select (compile + decode) → Handler().ServeHTTP into a
// recorder → a loopback socket. Each rung's self time is its median minus
// the rung below's, so the five self times add up to the socket rung. The
// HTTP rungs must return byte-identical solutions to the library rung.
func (h *harness) ladder(e *serveEnv) error {
	st := e.stack()
	mix := newMixer(h.cfg.seed, 99, h.cfg.sc)
	seq := make([]int, h.cfg.sc.ladderN)
	for i := range seq {
		seq[i] = mix.next()
	}
	type compiled struct {
		pat      graph.Pattern
		predVars map[string]bool
	}
	plans := map[int]compiled{}
	for _, q := range seq {
		if _, done := plans[q]; done {
			continue
		}
		pat, predVars, feasible, err := st.compile(e.pool[q].strs)
		if err != nil || !feasible {
			return fmt.Errorf("ladder: query %d does not compile (feasible=%v): %v", q, feasible, err)
		}
		plans[q] = compiled{pat, predVars}
	}
	// timedAfter runs f once per request of the sequence under a span, with
	// an untimed step before and after it (either may be nil).
	timedAfter := func(name, parent string, before func(i, q int), f func(i, q int) error, after func(i, q int)) ([]float64, error) {
		us := make([]float64, len(seq))
		for i, q := range seq {
			if before != nil {
				before(i, q)
			}
			t0 := time.Now()
			err := f(i, q)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s, query %d: %w", name, q, err)
			}
			h.tr.add(name, parent, q, t0, t1)
			us[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
			if after != nil {
				after(i, q)
			}
		}
		return us, nil
	}
	timed := func(name, parent string, f func(i, q int) error) ([]float64, error) {
		return timedAfter(name, parent, nil, f, nil)
	}

	opt := ltj.Options{Limit: serveLimit, Timeout: serveTimeout}
	engine := make([]evalSample, len(seq))
	evalUS, err := timed("ltj.evaluate", "query.select", func(i, q int) error {
		res, err := ltj.Evaluate(st.iters(), plans[q].pat, opt)
		if err != nil {
			return err
		}
		engine[i] = evalSample{q: q, count: len(res.Solutions), bad: res.TimedOut, stats: res.Stats}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range engine {
		engine[i].ns = int64(evalUS[i] * 1e3)
	}
	h.ltjMetrics(engine, nil)

	bindings := make([][]graph.Binding, len(seq))
	selectUS, err := timed("query.select", "wcoring.select", func(i, q int) (err error) {
		bindings[i], err = query.Select{Pattern: plans[q].pat, Limit: serveLimit, Timeout: serveTimeout}.Run(st.iters())
		return err
	})
	if err != nil {
		return err
	}
	compileUS, err := timed("wcoring.compile", "wcoring.select", func(i, q int) error {
		_, _, _, err := st.compile(e.pool[q].strs)
		return err
	})
	if err != nil {
		return err
	}
	decoded := 0
	decodeUS, err := timed("dict.decode", "wcoring.select", func(i, q int) error {
		for _, b := range bindings[i] {
			sink += uint64(len(st.decode(b, plans[q].predVars)))
		}
		decoded += len(bindings[i])
		return nil
	})
	if err != nil {
		return err
	}
	library := make([][]byte, len(seq)) // JSON of the library rung's solutions
	var sols []map[string]string
	stringUS, err := timedAfter("wcoring.select", "server.handler", nil, func(i, q int) (err error) {
		sols, err = st.selectStrings(e.pool[q].strs)
		return err
	}, func(i, q int) {
		library[i], _ = json.Marshal(orEmpty(sols)) // maps of strings always encode
	})
	if err != nil {
		return err
	}

	// The HTTP rungs run against a second server over the same index with
	// the result cache off, so every request walks the whole path.
	srv, err := e.newServer(server.Config{CacheEntries: -1})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	same := func(i int, body []byte) error {
		var rep queryReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		if !bytes.Equal(rep.Solutions, library[i]) {
			return fmt.Errorf("solutions differ from the library rung's (%d vs %d bytes)", len(rep.Solutions), len(library[i]))
		}
		return nil
	}
	// The reply is checked after the clock stops.
	mismatches := 0
	var reply []byte
	check := func(rung string) func(i, q int) {
		return func(i, q int) {
			if err := same(i, reply); err != nil {
				mismatches++
				h.note("%s rung, query %d: %v", rung, q, err)
			}
		}
	}
	var rec *httptest.ResponseRecorder
	var req *http.Request
	handlerUS, err := timedAfter("server.handler", "server.socket", func(i, q int) {
		rec = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(e.pool[q].body))
	}, func(i, q int) error {
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		reply = rec.Body.Bytes()
		return nil
	}, check("handler"))
	if err != nil {
		return err
	}
	ep, err := listen(srv)
	if err != nil {
		return err
	}
	defer ep.close()
	c := newClient(ep.url)
	defer c.close()
	socketUS, err := timedAfter("server.socket", "", nil, func(i, q int) error {
		status, body, err := c.post("/query", e.pool[q].body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		reply = body
		return err
	}, check("socket"))
	if err != nil {
		return err
	}
	h.attempted += 2 * len(seq)
	h.fail(mismatches, "%d HTTP replies differ from the library rung", mismatches)

	// The string rung holds compile and decode; what is left after taking
	// out query.Select below it and the compile beside it is decode.
	h.set("query.select_self_us", selfTime(selectUS, evalUS), "us")
	h.set("wcoring.compile_us", median(compileUS), "us")
	h.set("wcoring.decode_self_us", selfTime(stringUS, selectUS)-median(compileUS), "us")
	h.set("dict.decode_binding_ns", 1e3*sum(decodeUS)/float64(max(decoded, 1)), "ns")
	h.set("server.handler_self_us", selfTime(handlerUS, stringUS), "us")
	h.set("server.socket_self_us", selfTime(socketUS, handlerUS), "us")
	h.set("server.socket_rung_us", median(socketUS), "us")
	h.samples["ladder_requests"] = len(seq)
	return nil
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// serverMetrics are the serving rows read off the replies of a measured
// phase: how often the cache answered and how fast, how often a request rode
// another's evaluation, how often it was shed, and reply size.
func (h *harness) serverMetrics(samples []reqSample) {
	var hitUS []float64
	ok, hits, shared, shed, size := 0, 0, 0, 0, 0
	for _, s := range samples {
		if s.shed {
			shed++
		}
		if !s.ok {
			continue
		}
		ok++
		size += s.bytes
		if s.cached {
			hits++
			hitUS = append(hitUS, float64(s.ns)/1e3)
		}
		if s.shared {
			shared++
		}
	}
	n := float64(max(ok, 1))
	h.set("server.cache_hit_ratio", float64(hits)/n, "ratio")
	h.set("server.cache_hit_p50_us", median(hitUS), "us")
	h.set("server.shared_ratio", float64(shared)/n, "ratio")
	h.set("server.shed_ratio", float64(shed)/float64(max(len(samples), 1)), "ratio")
	h.set("server.response_bytes_per_query", float64(size)/n, "B")
}

// storeFileMetrics serializes the serving index and times the three ways of
// getting it back — what setup_s becomes once a server loads from a file.
func (h *harness) storeFileMetrics(st *wcoring.Store) error {
	path := filepath.Join(h.cfg.dir, fmt.Sprintf("store-%d.ring", os.Getpid()))
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := st.WriteTo(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

	t0 := time.Now()
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	_, err = wcoring.ReadStore(bufio.NewReader(in))
	in.Close()
	if err != nil {
		return err
	}
	h.tr.add("wcoring.read_store", "setup", 0, t0, time.Now())
	h.set("wcoring.read_store_ms", ms(t0), "ms")

	t0 = time.Now()
	reg, err := mman.Map(path)
	if err != nil {
		return err
	}
	defer reg.Release()
	h.tr.add("mman.map", "setup", 0, t0, time.Now())
	h.set("mman.map_ms", ms(t0), "ms")

	t0 = time.Now()
	if _, err := wcoring.ViewStore(reg.Bytes()); err != nil {
		return err
	}
	h.tr.add("wcoring.view_store", "setup", 0, t0, time.Now())
	h.set("wcoring.view_store_ms", ms(t0), "ms")
	return nil
}
