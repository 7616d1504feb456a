package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	wcoring "repro"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/persist"
)

// The server runs in one of two modes. Static mode serves an immutable
// ring loaded from a file. Live mode serves a persist.DB: queries pin an
// epoch snapshot of the dynamic store, and POST /insert and /delete
// append to the write-ahead log. The query path is shared through the
// index interface below; everything mutation- and durability-specific
// lives in this file.

// index is what the query path needs from either mode: pattern
// compilation against the (possibly growing) dictionary, a pinned
// iterator source for one evaluation, the dictionary to encode results
// through, and a cache-key prefix that changes whenever results could.
type index interface {
	Compile(q []wcoring.PatternString) (graph.Pattern, map[string]bool, bool, error)
	// Dictionary returns a dictionary safe to decode one response through
	// without locks; call it after the evaluation whose results it decodes.
	Dictionary() *wcoring.Dictionary
	// PatternIters pins a consistent view and returns the per-pattern
	// iterator factory over it; all iterators of one evaluation must come
	// from one call.
	PatternIters() func(tp graph.TriplePattern) ltj.PatternIter
	// CachePrefix keys the result cache by content version. Static
	// indexes return "" (the cache is invalidated wholesale on index
	// swap); live indexes return the store generation, so a cached result
	// can never be served across an applied batch.
	CachePrefix() string
}

// staticIndex serves an immutable wcoring.Store.
type staticIndex struct{ st *wcoring.Store }

func (x staticIndex) Compile(q []wcoring.PatternString) (graph.Pattern, map[string]bool, bool, error) {
	return x.st.Compile(q)
}

func (x staticIndex) Dictionary() *wcoring.Dictionary { return x.st.Dictionary() }

func (x staticIndex) PatternIters() func(tp graph.TriplePattern) ltj.PatternIter {
	rg := x.st.Ring()
	return func(tp graph.TriplePattern) ltj.PatternIter { return rg.NewPatternState(tp) }
}

func (x staticIndex) CachePrefix() string { return "" }

// liveIndex serves a persist.DB; the snapshot is pinned per evaluation.
type liveIndex struct{ db *persist.DB }

func (x liveIndex) Compile(q []wcoring.PatternString) (graph.Pattern, map[string]bool, bool, error) {
	return x.db.Compile(q)
}

func (x liveIndex) Dictionary() *wcoring.Dictionary { return x.db.DictSnapshot() }

func (x liveIndex) PatternIters() func(tp graph.TriplePattern) ltj.PatternIter {
	snap := x.db.Snapshot()
	return snap.NewPatternIter
}

func (x liveIndex) CachePrefix() string {
	return "g" + strconv.FormatUint(x.db.Generation(), 10) + "|"
}

// ExpectLive declares that this server will serve a live index that is
// still being recovered (the -data-dir boot path calls it before Open).
// Until SetLive installs the DB, mutations answer a retryable 503
// rather than the permanent-sounding read-only 501.
func (s *Server) ExpectLive() { s.liveWanted.Store(true) }

// SetLive installs an opened persist.DB as the live index: it runs an
// end-to-end probe query as a self-check, marks the server ready, and
// publishes the index gauges. The DB must already be recovered (Open
// does that); the caller keeps ownership and closes it after drain.
func (s *Server) SetLive(db *persist.DB) error {
	probe := graph.Pattern{graph.TP(graph.Var("s"), graph.Var("p"), graph.Var("o"))}
	if _, err := db.Snapshot().Evaluate(probe, ltj.Options{Limit: 1, Timeout: 30 * time.Second}); err != nil {
		return fmt.Errorf("server: live self-check query failed: %w", err)
	}
	s.liveWanted.Store(true)
	s.live.Store(db)
	s.met.indexTriples.set(int64(db.Len()))
	s.ready.Store(true)
	st := db.Stats()
	s.log.Info("live index ready",
		"triples", st.Triples,
		"manifest_version", st.ManifestVersion,
		"replayed_batches", st.RecoveryBatches,
		"replayed_ops", st.RecoveryOps,
		"torn_tail", st.RecoveryTorn)
	return nil
}

// Live returns the installed live DB, or nil in static mode.
func (s *Server) Live() *persist.DB { return s.live.Load() }

// index returns the active index, or nil when still loading.
func (s *Server) index() index {
	if db := s.live.Load(); db != nil {
		return liveIndex{db}
	}
	if st := s.store.Load(); st != nil {
		return staticIndex{st}
	}
	return nil
}

// --- mutation endpoints ---

// TripleJSON is one triple of a mutation request; all components are
// constants.
type TripleJSON struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// MutationRequest is the body of POST /insert and POST /delete. Sync
// (the default) makes the call return only after the batch's WAL record
// is fsynced — HTTP 200 then means durable. With "sync": false the batch
// is applied and queued for the next group commit, acknowledged with 202:
// visible immediately, durable shortly, lost if the process dies first.
type MutationRequest struct {
	Triples []TripleJSON `json:"triples"`
	Sync    *bool        `json:"sync,omitempty"`
}

// MutationResponse is the body of a successful mutation.
type MutationResponse struct {
	// Applied counts the triples whose presence actually changed
	// (inserts deduplicate; deletes of absent triples are no-ops).
	Applied int `json:"applied"`
	// Count is the batch size as received.
	Count  int  `json:"count"`
	Synced bool `json:"synced"`
	// Generation is the store epoch after this batch; it only moves
	// forward, so clients can use it to read-their-writes against
	// replicas or caches.
	Generation uint64 `json:"generation"`
	// Seq is the batch's committed WAL sequence. Replication preserves
	// it, so passing it back as X-Ring-Min-Seq on a query makes any
	// replica wait until this write is visible there (read-your-writes).
	Seq       uint64  `json:"seq"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// maxMutationBytes bounds a mutation body; larger ingests should be
// chunked into multiple batches (group commit amortises the fsyncs).
const maxMutationBytes = 8 << 20

// maxMutationTriples bounds one batch; it is also the unit of atomicity
// (one WAL record), so unbounded batches would make recovery lumpy.
const maxMutationTriples = 10000

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, "insert")
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, "delete")
}

func (s *Server) handleMutation(w http.ResponseWriter, r *http.Request, op string) {
	outcome := func(o string) string { return `op="` + op + `",outcome="` + o + `"` }
	if r.Method != http.MethodPost {
		s.met.mutations.get(outcome("bad_request")).inc()
		jsonError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	db := s.live.Load()
	if db == nil {
		if s.liveWanted.Load() {
			// Live mode is coming; recovery just has not finished. Mirror
			// the not-ready query path: transient, retryable.
			s.met.mutations.get(outcome("not_ready")).inc()
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusServiceUnavailable, "live index recovering")
			return
		}
		s.met.mutations.get(outcome("read_only")).inc()
		jsonError(w, http.StatusNotImplemented, "server is read-only: start with -data-dir for live updates")
		return
	}
	if s.draining.Load() {
		s.met.mutations.get(outcome("shed")).inc()
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// A non-promoted replica takes no writes: point the client at the
	// leader instead of forking history.
	if s.redirectMutation(w, r, outcome) {
		return
	}

	var req MutationRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxMutationBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.mutations.get(outcome("bad_request")).inc()
		jsonError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if err := validateMutation(&req); err != nil {
		s.met.mutations.get(outcome("bad_request")).inc()
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	sync := req.Sync == nil || *req.Sync

	ts := make([]wcoring.StringTriple, len(req.Triples))
	for i, t := range req.Triples {
		ts[i] = wcoring.StringTriple{S: t.S, P: t.P, O: t.O}
	}
	start := time.Now()
	kind := persist.OpInsert
	if op == "delete" {
		kind = persist.OpDelete
	}
	applied, seq, err := db.Mutate(kind, ts, sync)
	s.met.mutationDur.observe(time.Since(start))
	if err != nil {
		if errors.Is(err, persist.ErrTooLarge) {
			s.met.mutations.get(outcome("bad_request")).inc()
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.met.mutations.get(outcome("error")).inc()
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.met.mutations.get(outcome("ok")).inc()
	s.met.mutationTriples.add(int64(applied))
	code := http.StatusOK // synced: durable
	if !sync {
		code = http.StatusAccepted // queued: applied, fsync pending
	}
	w.Header().Set("X-Ring-Seq", strconv.FormatUint(seq, 10))
	writeJSON(w, code, &MutationResponse{
		Applied:    applied,
		Count:      len(req.Triples),
		Synced:     sync,
		Generation: db.Generation(),
		Seq:        seq,
		ElapsedMS:  msSince(start),
	})
}

func validateMutation(req *MutationRequest) error {
	if len(req.Triples) == 0 {
		return fmt.Errorf("empty triples")
	}
	if len(req.Triples) > maxMutationTriples {
		return fmt.Errorf("batch has %d triples, max %d", len(req.Triples), maxMutationTriples)
	}
	for i, t := range req.Triples {
		if t.S == "" || t.P == "" || t.O == "" {
			return fmt.Errorf("triple %d has an empty component", i)
		}
		if strings.HasPrefix(t.S, "?") || strings.HasPrefix(t.P, "?") || strings.HasPrefix(t.O, "?") {
			return fmt.Errorf("triple %d has a variable component; mutations take constants only", i)
		}
		if hasControlChar(t.S) || hasControlChar(t.P) || hasControlChar(t.O) {
			return fmt.Errorf("triple %d has a control character in a component", i)
		}
	}
	return nil
}

// hasControlChar reports whether a term contains a control character.
// The persistence formats are length-prefixed and store such terms
// safely; rejecting them at the API edge is hygiene — they are never
// meaningful graph constants and they mangle logs and TSV exports.
func hasControlChar(s string) bool {
	return strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 || r == 0x7f })
}

// --- persistence metrics ---

// writePersistProm renders the durability series from a persist.Stats
// snapshot; called at scrape time so the gauges are always current.
func writePersistProm(w io.Writer, st persist.Stats) {
	writeCounter(w, "ringserve_wal_appended_total", "Batches appended to the write-ahead log.", int64(st.WAL.AppendedBatches))
	writeCounter(w, "ringserve_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", int64(st.WAL.AppendedBytes))
	writeCounter(w, "ringserve_wal_fsync_total", "Group commits (fsyncs) of the write-ahead log.", int64(st.WAL.Fsyncs))
	writeGaugeValue(w, "ringserve_wal_segments", "WAL segment files on disk.", int64(st.WALSegments))
	writeGaugeValue(w, "ringserve_wal_bytes", "Total bytes of WAL segments on disk.", st.WALSizeBytes)
	writeHistSnapshot(w, "ringserve_wal_fsync_seconds", "WAL fsync latency (one observation per group commit).", st.WAL.FsyncSeconds)
	writeGaugeValue(w, "ringserve_memtable_triples", "Triples buffered in the dynamic store's memtable.", int64(st.MemtableTriples))
	writeGaugeValue(w, "ringserve_static_rings", "Static rings in the dynamic store.", int64(st.StaticRings))
	writeCounter(w, "ringserve_compactions_total", "Background memtable flushes and ring merges.", int64(st.Compactions))
	writeCounter(w, "ringserve_checkpoints_total", "Snapshot checkpoints (manifest installs).", int64(st.Checkpoints))
	writeCounter(w, "ringserve_recovery_replayed_total", "WAL batches replayed by the last recovery.", int64(st.RecoveryBatches))
	writeGaugeValue(w, "ringserve_index_generation", "Store epoch; advances on every applied batch and compaction.", int64(st.Generation))
	writeGaugeValue(w, "ringserve_manifest_version", "Installed manifest version.", int64(st.ManifestVersion))
}

func writeGaugeValue(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// writeHistSnapshot renders a persist histogram snapshot in the same
// cumulative form as the server's own histograms.
func writeHistSnapshot(w io.Writer, name, help string, h persist.HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.SumSeconds)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// persistStatsJSON is the "persist" section of GET /stats in live mode.
type persistStatsJSON struct {
	Triples         int    `json:"triples"`
	MemtableTriples int    `json:"memtable_triples"`
	StaticRings     int    `json:"static_rings"`
	DictSOTerms     int    `json:"dict_so_terms"`
	DictPTerms      int    `json:"dict_p_terms"`
	Generation      uint64 `json:"generation"`
	Compactions     uint64 `json:"compactions"`
	Checkpoints     uint64 `json:"checkpoints"`
	ManifestVersion uint64 `json:"manifest_version"`
	WALSegments     int    `json:"wal_segments"`
	WALBytes        int64  `json:"wal_bytes"`
	WALBatches      uint64 `json:"wal_appended_batches"`
	Fsyncs          uint64 `json:"wal_fsyncs"`
	RecoveryBatches uint64 `json:"recovery_replayed_batches"`
	RecoveryOps     uint64 `json:"recovery_replayed_ops"`
	RecoveryTorn    bool   `json:"recovery_torn_tail"`
	CheckpointError string `json:"checkpoint_error,omitempty"`
}

func persistStats(db *persist.DB) *persistStatsJSON {
	st := db.Stats()
	out := &persistStatsJSON{
		Triples:         st.Triples,
		MemtableTriples: st.MemtableTriples,
		StaticRings:     st.StaticRings,
		DictSOTerms:     st.DictSOTerms,
		DictPTerms:      st.DictPTerms,
		Generation:      st.Generation,
		Compactions:     st.Compactions,
		Checkpoints:     st.Checkpoints,
		ManifestVersion: st.ManifestVersion,
		WALSegments:     st.WALSegments,
		WALBytes:        st.WALSizeBytes,
		WALBatches:      st.WAL.AppendedBatches,
		Fsyncs:          st.WAL.Fsyncs,
		RecoveryBatches: st.RecoveryBatches,
		RecoveryOps:     st.RecoveryOps,
		RecoveryTorn:    st.RecoveryTorn,
	}
	if err := db.CheckpointError(); err != nil {
		out.CheckpointError = err.Error()
	}
	return out
}
