package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	wcoring "repro"
	"repro/internal/baseline/btree"
	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wgpb"
)

const (
	serveLimit   = 100
	serveTimeout = 10 * time.Second
	// preloadChunk is the batch size the live-mixed preload inserts with
	// (unsynced; one Checkpoint at the end makes it durable).
	preloadChunk = 50_000
)

// squery is one distinct query of the serving mix, in every form a rung of
// the ladder needs it.
type squery struct {
	kind string                  // "core", "P2" or "T2"
	pat  graph.Pattern           // in the generator's identifiers (verification)
	strs []wcoring.PatternString // what Store.Compile takes
	body []byte                  // the POST /query body
}

// serveEnv is what serve-socket and live-mixed run against: an index behind
// the server's handler on a loopback TCP listener. store is set for
// serve-socket, db and dir for live-mixed.
type serveEnv struct {
	g      *graph.Graph // the generated graph; the preload of live-mixed
	store  *wcoring.Store
	db     *persist.DB
	dir    string
	front  *endpoint
	pool   []squery   // [0, hotPool) is the hot set, the rest the cold set
	writes []mutation // live-mixed: the write schedule
}

// endpoint is a server.Server listening on 127.0.0.1.
type endpoint struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func listen(srv *server.Server) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { ep.served <- ep.hs.Serve(ln) }()
	return ep, nil
}

// close stops the listener and waits for Serve to return.
func (ep *endpoint) close() {
	ep.hs.Close()
	<-ep.served
}

func (e *serveEnv) close() {
	if e.front != nil {
		e.front.close()
	}
	if e.db != nil {
		e.db.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// newServer builds the handler over whichever index the environment has.
func (e *serveEnv) newServer(cfg server.Config) (*server.Server, error) {
	cfg.AccessLog = io.Discard
	if e.db == nil {
		cfg.Store = e.store
		return server.New(cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.ExpectLive()
	return srv, srv.SetLive(e.db)
}

// Terms are named as cmd/wgpbgen names them: entity e<id>, predicate p<id>.
// Entities the live-mixed writer introduces are w<k>.
func entity(id graph.ID) string    { return "e" + strconv.FormatUint(uint64(id), 10) }
func predicate(id graph.ID) string { return "p" + strconv.FormatUint(uint64(id), 10) }

func stringTriples(g *graph.Graph) []dict.StringTriple {
	ts := g.Triples()
	out := make([]dict.StringTriple, len(ts))
	for i, t := range ts {
		out[i] = dict.StringTriple{S: entity(t.S), P: predicate(t.P), O: entity(t.O)}
	}
	return out
}

func patternStrings(q graph.Pattern) []wcoring.PatternString {
	term := func(t graph.Term, pred bool) string {
		switch {
		case t.IsVar:
			return "?" + t.Name
		case pred:
			return predicate(t.Value)
		}
		return entity(t.Value)
	}
	out := make([]wcoring.PatternString, len(q))
	for i, tp := range q {
		out[i] = wcoring.PatternString{S: term(tp.S, false), P: term(tp.P, true), O: term(tp.O, false)}
	}
	return out
}

// buildPool generates the distinct queries of the serving mix: selective
// 2-pattern cores anchored on a subject, plus the distinct P2 and T2
// instances a random walk finds (all-variable nodes, so there are only as
// many as predicate pairs). The pool is shuffled; its head is the hot set.
// It is the serving workloads' query log and, like the graph, part of the
// dataset.
func buildPool(g *graph.Graph, want int) ([]squery, error) {
	w := wgpb.NewWorkload(g, dataset)
	var pool []squery
	seen := map[string]bool{}
	add := func(kind string, pats []graph.Pattern) error {
		for _, p := range pats {
			strs := patternStrings(p)
			req := server.QueryRequest{Limit: serveLimit}
			for _, s := range strs {
				req.Pattern = append(req.Pattern, server.PatternJSON{S: s.S, P: s.P, O: s.O})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			if !seen[string(body)] && len(pool) < want {
				seen[string(body)] = true
				pool = append(pool, squery{kind: kind, pat: p, strs: strs, body: body})
			}
		}
		return nil
	}
	for _, shape := range []string{"P2", "T2"} {
		if err := add(shape, w.Queries(wgpb.ShapeByName(shape), want/128)); err != nil {
			return nil, err
		}
	}
	if err := add("core", w.SharedScanCores(want)); err != nil {
		return nil, err
	}
	if len(pool) < want {
		return nil, fmt.Errorf("only %d of %d distinct queries could be generated", len(pool), want)
	}
	rand.New(rand.NewSource(dataset)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

func (h *harness) generate(triples int) (*graph.Graph, []squery, error) {
	g := generateGraph(triples)
	pool, err := buildPool(g, h.cfg.sc.hotPool+h.cfg.sc.coldPool)
	return g, pool, err
}

// buildServe is serve-socket's set-up: graph, string terms, dictionary and
// ring, the default-configured server, and a listening socket.
func (h *harness) buildServe() (*serveEnv, error) {
	g, pool, err := h.generate(h.cfg.sc.serveTriples)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{g: g, pool: pool}
	if e.store, err = wcoring.NewStore(stringTriples(g), wcoring.Options{}); err != nil {
		return nil, err
	}
	srv, err := e.newServer(server.Config{})
	if err != nil {
		return nil, err
	}
	e.front, err = listen(srv)
	return e, err
}

// buildLive is live-mixed's set-up: a fresh data directory, the preload
// inserted and checkpointed, the server over the live DB, a listening
// socket, and the write schedule for writeSeconds of open-loop traffic.
func (h *harness) buildLive(writeSeconds float64) (e *serveEnv, err error) {
	g, pool, err := h.generate(h.cfg.sc.liveTriples)
	if err != nil {
		return nil, err
	}
	e = &serveEnv{g: g, pool: pool}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.dir, err = os.MkdirTemp(h.cfg.dir, "live-"); err != nil {
		return e, err
	}
	if e.db, err = persist.Open(e.dir, persist.Options{}); err != nil {
		return e, err
	}
	strs := stringTriples(g)
	for i := 0; i < len(strs); i += preloadChunk {
		if _, err = e.db.InsertBatch(strs[i:min(i+preloadChunk, len(strs))], false); err != nil {
			return e, err
		}
	}
	if err = e.db.Checkpoint(); err != nil {
		return e, err
	}
	srv, err := e.newServer(server.Config{})
	if err != nil {
		return e, err
	}
	if e.front, err = listen(srv); err != nil {
		return e, err
	}
	e.writes, err = genWrites(g, h.cfg.seed+3, int(writeSeconds*float64(h.cfg.sc.writeRate)), h.cfg.sc.batchSize)
	return e, err
}

// client is one keep-alive connection's worth of HTTP client.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole response into the client's buffer,
// which the returned slice aliases until the next call.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// mixer draws the request sequence of one client: hotShare of the requests
// from the hot set, the rest uniformly from the cold set. The same seed and
// client number give the same sequence.
type mixer struct {
	rng       *rand.Rand
	hot, cold int
	share     float64
}

func newMixer(seed int64, clientNo int, sc scale) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed*31 + int64(clientNo) + 100)), hot: sc.hotPool, cold: sc.coldPool, share: sc.hotShare}
}

func (m *mixer) next() int {
	if m.rng.Float64() < m.share {
		return m.rng.Intn(m.hot)
	}
	return m.hot + m.rng.Intn(m.cold)
}

// reqSample is one timed POST /query.
type reqSample struct {
	q              int
	ns             int64
	at             time.Duration // when the reply arrived, since the loop began
	ok             bool          // 200, parsed, not timed out
	shed           bool          // 429 or 503
	cached, shared bool
	count, bytes   int
	hash           uint64 // of the response's "solutions" bytes
	sols           []byte // the bytes themselves, when the caller keeps them
}

// queryReply is the part of server.QueryResponse the client reads;
// Solutions stays raw so that rungs can be compared byte for byte.
type queryReply struct {
	Solutions json.RawMessage `json:"solutions"`
	Count     int             `json:"count"`
	Cached    bool            `json:"cached"`
	TimedOut  bool            `json:"timed_out"`
	Shared    bool            `json:"shared"`
}

func hashBytes(b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b)
	return f.Sum64()
}

// readLoop is one closed-loop reader: next request only after the previous
// reply was read in full, until dur has passed. The clock covers send to
// last byte; decoding the reply for verification happens after it stops.
// Over a live DB the solutions themselves are kept: they change with the
// store, so each reply is verified on its own.
func (e *serveEnv) readLoop(c *client, mix *mixer, dur time.Duration, tr *tracer) []reqSample {
	var out []reqSample
	keep := e.db != nil
	begin := time.Now()
	for {
		q := mix.next()
		t0 := time.Now()
		if t0.Sub(begin) >= dur {
			break
		}
		status, body, err := c.post("/query", e.pool[q].body)
		t1 := time.Now()
		s := reqSample{q: q, ns: t1.Sub(t0).Nanoseconds(), at: t1.Sub(begin), bytes: len(body)}
		s.shed = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		var rep queryReply
		if err == nil && status == http.StatusOK && json.Unmarshal(body, &rep) == nil && !rep.TimedOut {
			s.ok, s.cached, s.shared, s.count = true, rep.Cached, rep.Shared, rep.Count
			s.hash = hashBytes(rep.Solutions)
			if keep {
				s.sols = rep.Solutions
			}
		}
		out = append(out, s)
		tr.add("client.request", "workload", q, t0, t1)
	}
	return out
}

// readers runs one closed-loop reader per client side by side for dur and
// returns their samples in one slice.
func (e *serveEnv) readers(dur time.Duration, tr *tracer, mixes []*mixer, clients []*client) []reqSample {
	parts := make([][]reqSample, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = e.readLoop(clients[i], mixes[i], dur, tr)
		}(i)
	}
	wg.Wait()
	var all []reqSample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// mutation is one scheduled write: an /insert of fresh triples, or a
// /delete of triples an earlier insert wrote.
type mutation struct {
	path    string // "/insert" or "/delete"
	triples []dict.StringTriple
	body    []byte
}

// genWrites builds the write schedule: batches of triples the preload does
// not hold, half of them about new entities (w<k>) pointing at existing
// ones, half new edges between existing entities; every tenth batch is a
// delete of the first fiftieth of the batch before it. Deletes therefore
// only ever remove written triples, which is what lets reads be checked
// against the preload (always present) and the preload plus every write
// (never exceeded).
//
// The delete is small and recent on purpose. dynamic.Store.Delete rebuilds a
// whole static ring for each triple it removes from one (about 70 ms a
// triple once the ring has been merged to 50k triples), so deleting a full
// 250-triple batch that a flush has already frozen costs many seconds; at 20
// batches a second the open-loop backlog then grows without bound and every
// write latency measures the queue, not the system. Five triples of the
// previous batch are usually still in the memtable, and when a flush got
// there first the stall is a third of a second, not the rest of the run.
func genWrites(g *graph.Graph, seed int64, batches, size int) ([]mutation, error) {
	rng := rand.New(rand.NewSource(seed))
	numSO, numP := int(g.NumSO()), int(g.NumP())
	seen := map[graph.Triple]bool{}
	sync := true
	fresh := 0
	out := make([]mutation, batches)
	for i := range out {
		m := mutation{path: "/insert"}
		if i%10 == 9 {
			m = mutation{path: "/delete", triples: out[i-1].triples[:max(size/50, 1)]}
		} else {
			for len(m.triples) < size {
				t := graph.Triple{S: graph.ID(rng.Intn(numSO)), P: graph.ID(rng.Intn(numP)), O: graph.ID(rng.Intn(numSO))}
				st := dict.StringTriple{S: entity(t.S), P: predicate(t.P), O: entity(t.O)}
				if rng.Intn(2) == 0 {
					st.S = "w" + strconv.Itoa(fresh)
					fresh++
				} else if g.Contains(t) || seen[t] {
					continue
				} else {
					seen[t] = true
				}
				m.triples = append(m.triples, st)
			}
		}
		req := server.MutationRequest{Sync: &sync}
		for _, t := range m.triples {
			req.Triples = append(req.Triples, server.TripleJSON{S: t.S, P: t.P, O: t.O})
		}
		var err error
		if m.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// writeSample is one scheduled write as the open-loop writer saw it.
type writeSample struct {
	ackNS  int64 // due time → 200 after fsync
	lateNS int64 // due time → actually sent
	acked  bool
}

// writeLoop is the open-loop writer: batch i is due at begin + i/rate,
// whatever happened to batch i−1. It sleeps to absolute deadlines, times
// each write from its due time (so a stall is charged to every write it
// delays) and reports how late it sent.
func (e *serveEnv) writeLoop(c *client, rate int, begin time.Time, tr *tracer) []writeSample {
	out := make([]writeSample, len(e.writes))
	interval := time.Second / time.Duration(rate)
	for i, m := range e.writes {
		due := begin.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		status, _, err := c.post(m.path, m.body)
		ack := time.Now()
		out[i] = writeSample{ackNS: ack.Sub(due).Nanoseconds(), lateNS: sent.Sub(due).Nanoseconds(), acked: err == nil && status == http.StatusOK}
		tr.add("client.write", "workload", i, due, ack)
	}
	return out
}

// parseTerm maps a term name back to the identifier verification uses:
// e<id> and p<id> are the generator's, w<k> (written entities) follow the
// generator's subject/object space.
func parseTerm(s string, numSO graph.ID) (graph.ID, bool) {
	if len(s) < 2 {
		return 0, false
	}
	n, err := strconv.ParseUint(s[1:], 10, 32)
	if err != nil {
		return 0, false
	}
	switch s[0] {
	case 'e', 'p':
		return graph.ID(n), true
	case 'w':
		return numSO + graph.ID(n), true
	}
	return 0, false
}

// encodeSolutions maps string solutions back to identifier bindings.
func encodeSolutions(sols []map[string]string, numSO graph.ID) ([]graph.Binding, error) {
	out := make([]graph.Binding, len(sols))
	for i, sol := range sols {
		b := graph.Binding{}
		for v, s := range sol {
			id, ok := parseTerm(s, numSO)
			if !ok {
				return nil, fmt.Errorf("solution %d binds ?%s to %q, not a term of this graph", i, v, s)
			}
			b[v] = id
		}
		out[i] = b
	}
	return out, nil
}

// oracleCount is min(limit, n) by nested loops; ok is false if the oracle
// gave up.
func oracleCount(j *btree.Jena, q graph.Pattern, limit int) (int, bool) {
	res, err := j.Evaluate(q, ltj.Options{Limit: limit, Timeout: oracleTimeout})
	if err != nil || res.TimedOut {
		return 0, false
	}
	return len(res.Solutions), true
}

// verifyStatic checks every distinct query serve-socket issued, untimed:
// all its replies carried the same solutions; those are byte-identical to
// what the library (Store.Select, JSON-encoded) returns; every binding
// satisfies every pattern in the generated graph; and the count is
// min(limit, n) by nested loops. It returns the queries that failed.
func (h *harness) verifyStatic(e *serveEnv, samples []reqSample) map[int]bool {
	bad := map[int]bool{}
	first := map[int]reqSample{}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		f, seen := first[s.q]
		if !seen {
			first[s.q] = s
		} else if f.hash != s.hash || f.count != s.count {
			bad[s.q] = true
			h.note("query %d: two replies differ", s.q)
		}
	}
	oracle := btree.NewJena(e.g)
	skipped := 0
	for q, f := range first {
		sq := e.pool[q]
		sols, err := e.store.Select(sq.strs, wcoring.SelectOptions{QueryOptions: wcoring.QueryOptions{Limit: serveLimit, Timeout: serveTimeout}})
		if err != nil {
			bad[q] = true
			h.note("query %d: Store.Select: %v", q, err)
			continue
		}
		if lib, _ := json.Marshal(orEmpty(sols)); hashBytes(lib) != f.hash {
			bad[q] = true
			h.note("query %d: HTTP solutions differ from Store.Select's", q)
			continue
		}
		ids, err := encodeSolutions(sols, e.g.NumSO())
		if err == nil {
			if why := checkBindings(e.g, sq.pat, ids); why != "" {
				err = errors.New(why)
			}
		}
		if err != nil {
			bad[q] = true
			h.note("query %d: %v", q, err)
			continue
		}
		want, ok := oracleCount(oracle, sq.pat, serveLimit)
		if !ok {
			skipped++
		} else if want != f.count {
			bad[q] = true
			h.note("query %d: %d solutions, nested loops find %d", q, f.count, want)
		}
	}
	h.samples["verified_queries"] = len(first)
	h.samples["oracle_gave_up"] = skipped
	return bad
}

// orEmpty is the server's convention: no solutions encode as [], not null.
func orEmpty(sols []map[string]string) []map[string]string {
	if sols == nil {
		return []map[string]string{}
	}
	return sols
}

// verifyLive checks live-mixed's reads against a store that was changing
// under them. Writes only add triples and deletes only remove written ones,
// so at every instant preload ⊆ store ⊆ preload ∪ writes: each binding must
// satisfy every pattern in the upper graph, and each reply's count must lie
// between min(limit, n) over the lower and over the upper graph. It returns
// the indexes of the samples that failed.
func (h *harness) verifyLive(e *serveEnv, samples []reqSample) map[int]bool {
	numSO := e.g.NumSO()
	all := append([]graph.Triple(nil), e.g.Triples()...)
	for _, m := range e.writes {
		if m.path != "/insert" {
			continue
		}
		for _, t := range m.triples {
			s, _ := parseTerm(t.S, numSO)
			p, _ := parseTerm(t.P, numSO)
			o, _ := parseTerm(t.O, numSO)
			all = append(all, graph.Triple{S: s, P: p, O: o})
		}
	}
	upper := graph.New(all)
	lowOracle, upOracle := btree.NewJena(e.g), btree.NewJena(upper)
	type bounds struct {
		lo, hi int
		ok     bool
	}
	cache := map[int]bounds{}
	bad := map[int]bool{}
	skipped := 0
	for i, s := range samples {
		if !s.ok {
			continue
		}
		sq := e.pool[s.q]
		var sols []map[string]string
		err := json.Unmarshal(s.sols, &sols)
		var ids []graph.Binding
		if err == nil {
			ids, err = encodeSolutions(sols, numSO)
		}
		if err == nil {
			if why := checkBindings(upper, sq.pat, ids); why != "" {
				err = errors.New(why)
			}
		}
		if err != nil {
			bad[i] = true
			h.note("query %d: %v", s.q, err)
			continue
		}
		b, seen := cache[s.q]
		if !seen {
			lo, ok1 := oracleCount(lowOracle, sq.pat, serveLimit)
			hi, ok2 := oracleCount(upOracle, sq.pat, serveLimit)
			b = bounds{lo, hi, ok1 && ok2}
			cache[s.q] = b
			if !b.ok {
				skipped++
			}
		}
		if b.ok && (s.count < b.lo || s.count > b.hi || s.count != len(sols)) {
			bad[i] = true
			h.note("query %d: %d solutions, nested loops bound it to [%d, %d]", s.q, s.count, b.lo, b.hi)
		}
	}
	h.samples["verified_queries"] = len(cache)
	h.samples["oracle_gave_up"] = skipped
	return bad
}

// verifyDurable closes the DB, reopens the directory and checks that every
// acknowledged insert that no acknowledged delete removed is present, and
// every triple of an acknowledged delete is absent. It returns the number
// of writes whose acknowledgement the reopened store contradicts, and the
// reopen time.
func (h *harness) verifyDurable(e *serveEnv, acks []writeSample) (lost int, reopenMS float64, err error) {
	e.front.close()
	e.front = nil
	if err := e.db.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing the DB: %w", err)
	}
	t0 := time.Now()
	db, err := persist.Open(e.dir, persist.Options{})
	if err != nil {
		return 0, 0, fmt.Errorf("reopening the DB: %w", err)
	}
	reopenMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	e.db = db
	// A triple is written once and deleted at most once, so "deleted" is
	// final; a delete that was sent but not acknowledged leaves its triples
	// in an unknown state, which is not checked.
	deleted, unknown := map[dict.StringTriple]bool{}, map[dict.StringTriple]bool{}
	for i, m := range e.writes[:len(acks)] {
		if m.path != "/delete" {
			continue
		}
		for _, t := range m.triples {
			if acks[i].acked {
				deleted[t] = true
			} else {
				unknown[t] = true
			}
		}
	}
	snap := db.Snapshot()
	holds := func(t dict.StringTriple) bool {
		q, _, feasible, err := db.Compile([]wcoring.PatternString{{S: t.S, P: t.P, O: t.O}})
		if err != nil || !feasible {
			return false
		}
		res, err := snap.Evaluate(q, ltj.Options{Limit: 1})
		return err == nil && len(res.Solutions) == 1
	}
	for i, m := range e.writes[:len(acks)] {
		if !acks[i].acked {
			continue
		}
		for _, t := range m.triples {
			if unknown[t] {
				continue
			}
			if want := !deleted[t]; holds(t) != want {
				lost++
				h.note("write %d (%s) was acknowledged, but after reopen (%s %s %s) present=%v", i, m.path, t.S, t.P, t.O, !want)
				break
			}
		}
	}
	return lost, reopenMS, nil
}
