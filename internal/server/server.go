// Package server is the resident serving layer over the ring: it loads an
// index once and multiplexes concurrent basic-graph-pattern queries over
// it through HTTP, with the controls a long-running process needs —
// admission control (a weighted semaphore with a bounded wait queue, so
// overload degrades into fast 429/503 shedding instead of goroutine
// growth), per-request deadlines and client-disconnect cancellation
// plumbed into the LTJ engine, an LRU result cache keyed on the canonical
// query form, Prometheus-text metrics, structured access logs, and
// readiness/draining state for orchestrated deployments.
//
// The request path is admission → cache → engine:
//
//	gate → parse → compile → cache lookup ── hit ───────► respond
//	                             │ miss
//	                             ▼
//	                   admission.acquire (bounded queue; shed 429/503)
//	                             ▼
//	                   query.Select.Rows (ltj over the shared ring,
//	                             │         ctx-cancellable, deadline-bounded)
//	                             ▼
//	                   encode → cache fill (bytes) → write
//
// The ring's query structures are immutable after load, so queries share
// the index without locks; all mutable state (cache, counters, admission)
// is internally synchronized.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	wcoring "repro"
	"repro/internal/ltj"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/ring"
)

// Config sizes the server. Zero values select the documented defaults; a
// negative CacheEntries disables the result cache.
type Config struct {
	// Store is the loaded index. May be nil at construction for async
	// loading — the server answers 503 until SetStore succeeds.
	Store *wcoring.Store
	// MaxConcurrent is the admission semaphore's weight capacity — the
	// engine goroutines allowed to evaluate at once (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue; requests beyond it are
	// shed with 429 (default 4×MaxConcurrent).
	MaxQueue int
	// QueueWait bounds how long a request may wait for admission before a
	// 503 (default 2s).
	QueueWait time.Duration
	// DefaultTimeout is the per-query evaluation deadline when the request
	// does not set one (default 10s); MaxTimeout caps what a request may
	// ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultLimit is the solution cap when the request does not set one
	// (default 1000); MaxLimit caps what a request may ask for
	// (default 100000).
	DefaultLimit int
	MaxLimit     int
	// Parallelism is the LTJ worker count per query (0/1 = sequential).
	// Each admitted query weighs max(1, Parallelism) semaphore units, so
	// MaxConcurrent bounds engine goroutines regardless of this setting.
	Parallelism int
	// CacheEntries and CacheBytes bound the result cache (defaults 256
	// entries, 64 MiB). CacheEntries < 0 disables caching.
	CacheEntries int
	CacheBytes   int64
	// AccessLog receives one JSON line per request (default os.Stderr).
	AccessLog io.Writer
	// MaxReplicaLag bounds how far behind a follower may fall before
	// /readyz reports 503 and load balancers route reads elsewhere
	// (default 30s). Only meaningful when SetFollower installs a replica.
	MaxReplicaLag time.Duration
}

func (cfg *Config) fillDefaults() {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 2 * time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.DefaultLimit <= 0 {
		cfg.DefaultLimit = 1000
	}
	if cfg.MaxLimit <= 0 {
		cfg.MaxLimit = 100000
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.AccessLog == nil {
		cfg.AccessLog = os.Stderr
	}
	if cfg.MaxReplicaLag <= 0 {
		cfg.MaxReplicaLag = 30 * time.Second
	}
}

// Server is the HTTP serving layer. Construct with New, expose Handler()
// through an http.Server, and call BeginDrain before shutting that server
// down gracefully.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	adm    *admission
	cache  *resultCache // nil when disabled
	met    *metrics
	log    *slog.Logger
	weight int // admission weight of one query

	store      atomic.Pointer[wcoring.Store]
	live       atomic.Pointer[persist.DB] // set instead of store in live mode
	liveWanted atomic.Bool                // live mode intended; recovery may still be running
	indexStats atomic.Pointer[ring.Stats]
	loadInfo   atomic.Pointer[LoadInfo]
	repl       atomic.Pointer[replRefs] // optional replication roles
	ready      atomic.Bool
	draining   atomic.Bool
}

// LoadInfo records how the index got into memory. The loader
// (cmd/ringserve) sets it once after the initial load; /metrics and
// /stats report the mapped footprint and startup load time from it. In
// live mode the mapped footprint evolves with checkpoints, so
// scrape-time values come from persist.Stats instead and LoadInfo
// contributes only the initial load time.
type LoadInfo struct {
	BytesMapped int64   // bytes aliased from file mappings
	Regions     int     // file mappings backing the index
	Seconds     float64 // wall-clock time of the initial load
}

// SetLoadInfo publishes how the index was loaded; safe to call before or
// after SetStore/SetLive and at most once per process in practice.
func (s *Server) SetLoadInfo(info LoadInfo) { s.loadInfo.Store(&info) }

// New builds a server. If cfg.Store is non-nil it is installed (and
// self-checked) immediately; otherwise the server starts not-ready and
// SetStore completes initialisation.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		adm: newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		met: newMetrics(),
		log: slog.New(slog.NewJSONHandler(cfg.AccessLog, nil)),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.weight = cfg.Parallelism
	if s.weight < 1 {
		s.weight = 1
	}
	if s.weight > cfg.MaxConcurrent {
		s.weight = cfg.MaxConcurrent
	}

	s.mux.HandleFunc("/query", s.accessLog("query", s.handleQuery))
	s.mux.HandleFunc("/healthz", s.accessLog("healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.accessLog("readyz", s.handleReadyz))
	s.mux.HandleFunc("/metrics", s.accessLog("metrics", s.handleMetrics))
	s.mux.HandleFunc("/stats", s.accessLog("stats", s.handleStats))
	s.mux.HandleFunc("/cache/invalidate", s.accessLog("cache_invalidate", s.handleInvalidate))
	s.mux.HandleFunc("/insert", s.accessLog("insert", s.handleInsert))
	s.mux.HandleFunc("/delete", s.accessLog("delete", s.handleDelete))
	s.mux.HandleFunc("/repl/promote", s.accessLog("promote", s.handlePromote))

	if cfg.Store != nil {
		if err := s.SetStore(cfg.Store); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetStore installs (or replaces) the index: it self-checks the store
// with a statistics scan and an end-to-end probe query, invalidates the
// result cache if a previous index was being served, publishes the index
// gauges and marks the server ready. Safe to call from a loader goroutine
// while the server is already accepting (and 503-ing) requests.
func (s *Server) SetStore(st *wcoring.Store) error {
	stats := st.Ring().Stats()
	if stats.Triples != st.Len() {
		return fmt.Errorf("server: self-check failed: ring reports %d triples, store %d", stats.Triples, st.Len())
	}
	probe := []wcoring.PatternString{{S: "?s", P: "?p", O: "?o"}}
	if _, err := st.Select(probe, wcoring.SelectOptions{QueryOptions: wcoring.QueryOptions{Limit: 1, Timeout: 30 * time.Second}}); err != nil {
		return fmt.Errorf("server: self-check query failed: %w", err)
	}
	if s.store.Swap(st) != nil && s.cache != nil {
		s.cache.invalidate() // replacing a live index: cached results are stale
	}
	s.indexStats.Store(&stats)
	s.met.indexTriples.set(int64(stats.Triples))
	s.met.indexSubjects.set(int64(stats.DistinctSubjects))
	s.met.indexPredicates.set(int64(stats.DistinctPredicates))
	s.met.indexObjects.set(int64(stats.DistinctObjects))
	s.ready.Store(true)
	s.log.Info("index ready",
		"triples", stats.Triples,
		"bytes_per_triple", float64(st.SizeBytes())/float64(max(1, st.Len())))
	return nil
}

// BeginDrain flips the server into draining mode: /readyz reports 503 (so
// load balancers stop routing here) and new queries are refused, while
// queries already admitted run to completion. The caller then shuts the
// http.Server down gracefully with its own hard deadline.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started")
	}
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "loading\n")
	default:
		if reason := s.replicaNotReady(); reason != "" {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, reason+"\n")
			return
		}
		io.WriteString(w, "ready\n")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	used, queued := s.adm.snapshot()
	s.met.inFlight.set(int64(used))
	s.met.queueDepth.set(int64(queued))
	ready := int64(0)
	if s.ready.Load() && !s.draining.Load() {
		ready = 1
	}
	s.met.ready.set(ready)
	var cs cacheStats
	if s.cache != nil {
		cs = s.cache.stats()
	}
	if db := s.live.Load(); db != nil {
		s.met.indexTriples.set(int64(db.Len()))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeProm(w, cs)
	var pst *persist.Stats
	if db := s.live.Load(); db != nil {
		st := db.Stats()
		pst = &st
		writePersistProm(w, st)
	}
	s.writeLoadProm(w, pst)
	writeReplProm(w, s.repl.Load())
}

// writeLoadProm renders the index-load series: startup latency from the
// one-time LoadInfo record, and the mapped footprint — which in live
// mode changes with every checkpoint — from the current persist stats
// when available.
func (s *Server) writeLoadProm(w io.Writer, pst *persist.Stats) {
	li := s.loadInfo.Load()
	if li == nil && pst == nil {
		return
	}
	var bytesMapped int64
	var loadSecs float64
	if li != nil {
		bytesMapped = li.BytesMapped
		loadSecs = li.Seconds
	}
	if pst != nil {
		bytesMapped = pst.MappedBytes
	}
	writeFloatGauge(w, "ringserve_index_load_seconds", "Wall-clock seconds of the initial index load.", loadSecs)
	writeGaugeValue(w, "ringserve_index_bytes_mapped", "Bytes of index data backed by file mappings.", bytesMapped)
	if pst != nil {
		writeFloatGauge(w, "ringserve_snapshot_install_seconds", "Install phase of the last checkpoint: map (or keep) new rings, swap them in, install the manifest.", pst.LastInstallSeconds)
	}
}

// statsResponse is the body of GET /stats: the index-wide statistics the
// ring answers from its own structures, plus serving-side state.
type statsResponse struct {
	Triples            int        `json:"triples"`
	DistinctSubjects   int        `json:"distinct_subjects"`
	DistinctPredicates int        `json:"distinct_predicates"`
	DistinctObjects    int        `json:"distinct_objects"`
	IndexBytes         int        `json:"index_bytes"`
	Ready              bool       `json:"ready"`
	Draining           bool       `json:"draining"`
	Cache              cacheStats `json:"cache"`
	// Persist is present in live mode only: durability and ingestion
	// state of the backing data directory.
	Persist *persistStatsJSON `json:"persist,omitempty"`
	// Mapped is present once load info is recorded: the current
	// file-mapped footprint and how long loading took.
	Mapped *mappedStatsJSON `json:"mapped,omitempty"`
	// Repl is present on replication-enabled nodes: follower position and
	// lag, or stream counts on a leader.
	Repl *replStatsJSON `json:"repl,omitempty"`
}

// replStatsJSON is the "repl" section of GET /stats.
type replStatsJSON struct {
	// Follower is present when this node tails (or was promoted from
	// tailing) a leader.
	Follower *repl.Info `json:"follower,omitempty"`
	// Streams is the leader-side count of attached followers.
	Streams *int64 `json:"streams,omitempty"`
}

func (s *Server) replStats() *replStatsJSON {
	refs := s.repl.Load()
	if refs == nil {
		return nil
	}
	out := &replStatsJSON{}
	if refs.leader != nil {
		n := refs.leader.Streams()
		out.Streams = &n
	}
	if refs.follower != nil {
		info := refs.follower.Info()
		out.Follower = &info
	}
	if out.Streams == nil && out.Follower == nil {
		return nil
	}
	return out
}

// mappedStatsJSON is the "mapped" section of GET /stats.
type mappedStatsJSON struct {
	BytesMapped        int64   `json:"bytes_mapped"`
	Regions            int     `json:"regions"`
	LoadSeconds        float64 `json:"load_seconds"`
	LastInstallSeconds float64 `json:"last_install_seconds,omitempty"`
}

// mappedStats mirrors writeLoadProm's source precedence: static mode
// reports the one-time load record, live mode the current footprint.
func (s *Server) mappedStats(pst *persist.Stats) *mappedStatsJSON {
	li := s.loadInfo.Load()
	if li == nil && pst == nil {
		return nil
	}
	out := &mappedStatsJSON{}
	if li != nil {
		out.BytesMapped = li.BytesMapped
		out.Regions = li.Regions
		out.LoadSeconds = li.Seconds
	}
	if pst != nil {
		out.BytesMapped = pst.MappedBytes
		out.Regions = pst.MappedRings
		out.LastInstallSeconds = pst.LastInstallSeconds
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if db := s.live.Load(); db != nil {
		resp := statsResponse{
			Triples:  db.Len(),
			Ready:    s.ready.Load() && !s.draining.Load(),
			Draining: s.draining.Load(),
			Persist:  persistStats(db),
		}
		resp.IndexBytes = db.Snapshot().SizeBytes()
		pst := db.Stats()
		resp.Mapped = s.mappedStats(&pst)
		resp.Repl = s.replStats()
		if s.cache != nil {
			resp.Cache = s.cache.stats()
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	st := s.store.Load()
	stats := s.indexStats.Load()
	if st == nil || stats == nil {
		jsonError(w, http.StatusServiceUnavailable, "index loading")
		return
	}
	resp := statsResponse{
		Triples:            stats.Triples,
		DistinctSubjects:   stats.DistinctSubjects,
		DistinctPredicates: stats.DistinctPredicates,
		DistinctObjects:    stats.DistinctObjects,
		IndexBytes:         st.SizeBytes(),
		Ready:              s.ready.Load() && !s.draining.Load(),
		Draining:           s.draining.Load(),
		Mapped:             s.mappedStats(nil),
	}
	if s.cache != nil {
		resp.Cache = s.cache.stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cache == nil {
		jsonError(w, http.StatusNotFound, "cache disabled")
		return
	}
	s.cache.invalidate()
	writeJSON(w, http.StatusOK, map[string]string{"status": "invalidated"})
}

// handleQuery is the one query path (package comment). Concurrent
// identical cache misses each take their own admission slot: overload is
// bounded by admission, repeats by the cache once the first copy finishes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	idx := s.index()
	switch {
	case s.draining.Load():
		s.shedQuery(w, http.StatusServiceUnavailable, `reason="draining"`, "draining")
		return
	case idx == nil || !s.ready.Load():
		s.shedQuery(w, http.StatusServiceUnavailable, `reason="not_ready"`, "index loading")
		return
	}

	// Sequence-consistent reads: X-Ring-Min-Seq holds the query until the
	// local store has applied the client's last write (bounded wait).
	if !s.waitMinSeq(w, r) {
		return
	}

	req, err := parseRequest(r)
	if err != nil {
		s.badQuery(w, err.Error())
		return
	}
	timeout := effectiveTimeout(req.TimeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	limit := effectiveLimit(req.Limit, s.cfg.DefaultLimit, s.cfg.MaxLimit)
	start := time.Now()

	encoded, predVars, feasible, err := idx.Compile(req.patternStrings())
	if err != nil {
		s.badQuery(w, err.Error())
		return
	}
	if !feasible {
		// A constant is absent from the dictionary: provably no solutions
		// (the compiled pattern is empty, so its variables go unchecked).
		s.met.queries.get(`outcome="ok"`).inc()
		resp := newBody()
		resp.b = append(resp.b, "[]"...)
		resp.send(w, start, envelope{})
		return
	}

	sel := query.Select{
		Pattern:     encoded,
		Project:     req.Project,
		Distinct:    req.Distinct,
		OrderBy:     req.OrderBy,
		Offset:      req.Offset,
		Limit:       limit,
		Timeout:     timeout,
		Parallelism: s.cfg.Parallelism,
	}
	// Projection and order-by typos come back as 400s, not 500s.
	project, err := sel.Check()
	if err != nil {
		s.badQuery(w, err.Error())
		return
	}
	// In live mode the key carries the store generation: a batch applied
	// between two identical queries changes the prefix, so stale entries
	// can never hit (they age out of the LRU instead).
	key := idx.CachePrefix() + sel.CacheKey()
	cacheable := s.cache != nil && !req.NoCache
	if cacheable {
		if sols, count, ok := s.cache.get(key); ok {
			s.met.queries.get(`outcome="cache_hit"`).inc()
			s.met.queryDur.observe(time.Since(start))
			resp := newBody()
			resp.b = append(resp.b, sols...)
			resp.send(w, start, envelope{count: count, cached: true})
			return
		}
	}

	// Admission: wait in the bounded queue for at most QueueWait (or
	// until the client goes away), then hold the weight for the whole
	// evaluation.
	waitCtx, cancelWait := context.WithTimeout(r.Context(), s.cfg.QueueWait)
	err = s.adm.acquire(waitCtx, s.weight)
	cancelWait()
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.shedQuery(w, http.StatusTooManyRequests, `reason="queue_full"`, "server saturated: admission queue full")
		case r.Context().Err() != nil:
			s.clientGone(w)
		default: // queue wait timed out
			s.shedQuery(w, http.StatusServiceUnavailable, `reason="queue_timeout"`, "server saturated: admission wait timed out")
		}
		return
	}
	defer s.adm.release(s.weight)

	var st ltj.EvalStats
	sel.Stats = &st
	sel.Context = r.Context()
	// One iterator source per evaluation: in live mode this pins an epoch
	// snapshot, so a concurrent flush or merge cannot tear the view.
	iters := idx.PatternIters()
	rows, err := sel.CheckedRows(ltj.IndexFunc(iters), project)
	elapsed := time.Since(start)
	s.met.ltjLeaps.add(int64(st.Leaps))
	s.met.ltjBinds.add(int64(st.Binds))
	s.met.ltjSeeks.add(int64(st.Seeks))
	s.met.ltjEnums.add(int64(st.Enumerations))
	s.met.ltjBatchDescents.add(int64(st.BatchDescents))
	s.met.ltjBatchEmits.add(int64(st.BatchEmits))
	s.met.queryDur.observe(elapsed)

	timedOut := errors.Is(err, ltj.ErrTimeout)
	if err != nil && !timedOut {
		if errors.Is(err, ltj.ErrCancelled) { // the client went away mid-evaluation
			s.clientGone(w)
			return
		}
		s.met.queries.get(`outcome="error"`).inc()
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := newBody()
	resp.b = appendSolutions(resp.b, rows, idx.Dictionary(), predVars)
	if cacheable && !timedOut {
		s.cache.put(key, bytes.Clone(resp.solutions()), rows.N)
	}
	outcome := `outcome="ok"`
	if timedOut {
		outcome = `outcome="timeout"`
	}
	s.met.queries.get(outcome).inc()
	resp.send(w, start, envelope{count: rows.N, timedOut: timedOut, stats: &st})
}

// shedQuery refuses a query retryably: the shed is counted under its
// pre-rendered reason label and the client is told to come back.
func (s *Server) shedQuery(w http.ResponseWriter, code int, reason, msg string) {
	s.met.queries.get(`outcome="shed"`).inc()
	s.met.shed.get(reason).inc()
	w.Header().Set("Retry-After", "1")
	jsonError(w, code, msg)
}

// badQuery answers a query the client must fix before retrying.
func (s *Server) badQuery(w http.ResponseWriter, msg string) {
	s.met.queries.get(`outcome="bad_request"`).inc()
	jsonError(w, http.StatusBadRequest, msg)
}

// clientGone records a query whose client disconnected before the
// response; nobody reads the body.
func (s *Server) clientGone(w http.ResponseWriter) {
	s.met.queries.get(`outcome="cancelled"`).inc()
	w.WriteHeader(statusClientClosedRequest)
}

// statusClientClosedRequest is nginx's conventional code for "client
// disconnected before the response": nothing standard fits, and access
// logs need to tell these from real errors.
const statusClientClosedRequest = 499

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func jsonError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
