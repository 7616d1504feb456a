package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/repl"
)

// Replication wiring for the serving tier. A follower serves the same
// query surface as a live leader — the store underneath is a normal
// persist.DB fed by the tail loop instead of by POST /insert — so this
// file only adds the replica-specific edges: mutation redirects (421
// with the leader's address), sequence-consistent reads
// (X-Ring-Min-Seq), lag-aware readiness, the promote endpoint, and
// replication gauges in /stats and /metrics.

// ReplFollower is what the serving tier needs from a replication
// follower; satisfied by *repl.Follower (an interface so server tests
// can fake replication states without a real leader).
type ReplFollower interface {
	Info() repl.Info
	Writable() bool
	LeaderAddr() string
	Promote(ctx context.Context) error
}

// ReplLeader is what the serving tier reports about the leader side of
// replication; satisfied by *repl.Leader.
type ReplLeader interface {
	Streams() int64
}

// replRefs bundles the optional replication roles; one atomic slot so
// handlers read a consistent pair.
type replRefs struct {
	follower ReplFollower
	leader   ReplLeader
}

// SetFollower installs the follower whose state gates readiness and
// redirects mutations. Call before serving traffic.
func (s *Server) SetFollower(f ReplFollower) {
	refs := replRefs{follower: f}
	if old := s.repl.Load(); old != nil {
		refs.leader = old.leader
	}
	s.repl.Store(&refs)
}

// SetReplLeader installs the leader-side replication endpoint for
// reporting (stream gauge in /metrics).
func (s *Server) SetReplLeader(l ReplLeader) {
	refs := replRefs{leader: l}
	if old := s.repl.Load(); old != nil {
		refs.follower = old.follower
	}
	s.repl.Store(&refs)
}

func (s *Server) replFollower() ReplFollower {
	if refs := s.repl.Load(); refs != nil {
		return refs.follower
	}
	return nil
}

// replicaNotReady reports why a non-writable follower should fail its
// readiness probe ("" = ready): parked (resync required — this node will
// never catch up unattended) or lagging beyond the configured bound
// while records are known to be missing. A follower that is merely
// disconnected but has applied everything it ever heard of stays ready:
// it serves a complete-as-of-contact view, which is what read replicas
// are for.
func (s *Server) replicaNotReady() string {
	f := s.replFollower()
	if f == nil || f.Writable() {
		return ""
	}
	info := f.Info()
	if info.Parked {
		return "replica parked: " + info.LastErr
	}
	if info.LagBatches > 0 && info.LagSeconds > s.cfg.MaxReplicaLag.Seconds() {
		return fmt.Sprintf("replica lagging: %d batches, %.1fs", info.LagBatches, info.LagSeconds)
	}
	return ""
}

// redirectMutation answers a mutation attempted on a non-writable
// replica: 421 Misdirected Request with the leader's advertised address
// in X-Ring-Leader (and a full Location when known). Returns false when
// the server is not a read-only replica and the mutation should proceed.
func (s *Server) redirectMutation(w http.ResponseWriter, r *http.Request, outcome func(string) string) bool {
	f := s.replFollower()
	if f == nil || f.Writable() {
		return false
	}
	s.met.mutations.get(outcome("redirected")).inc()
	leader := f.LeaderAddr()
	w.Header().Set("X-Ring-Leader", leader)
	if leader != "" {
		w.Header().Set("Location", "http://"+leader+r.URL.Path)
	}
	jsonError(w, http.StatusMisdirectedRequest, "read-only replica: send mutations to leader "+leader)
	return true
}

// waitMinSeq honours X-Ring-Min-Seq: block (bounded by QueueWait) until
// the local store has applied at least the requested batch sequence, so
// a client holding a mutation's committed seq can read-its-writes on
// any replica. Returns false when the request was already answered.
func (s *Server) waitMinSeq(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get("X-Ring-Min-Seq")
	if h == "" {
		return true
	}
	minSeq, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		s.badQuery(w, "bad X-Ring-Min-Seq: "+err.Error())
		return false
	}
	db := s.live.Load()
	if db == nil {
		s.badQuery(w, "X-Ring-Min-Seq requires a live or replica server")
		return false
	}
	waitCtx, cancel := context.WithTimeout(r.Context(), s.cfg.QueueWait)
	err = db.WaitApplied(waitCtx, minSeq)
	cancel()
	if err == nil {
		return true
	}
	if r.Context().Err() != nil {
		s.clientGone(w)
		return false
	}
	s.shedQuery(w, http.StatusServiceUnavailable, `reason="min_seq"`,
		fmt.Sprintf("replica behind: applied %d < requested %d", db.AppliedSeq(), minSeq))
	return false
}

// handlePromote flips a follower into a writable leader (POST
// /repl/promote): stop tailing, drain applies to durability, seal the
// WAL, refuse if any known leader batch is missing.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	f := s.replFollower()
	if f == nil {
		jsonError(w, http.StatusNotFound, "not a replica")
		return
	}
	if err := f.Promote(r.Context()); err != nil {
		if errors.Is(err, repl.ErrNotCaughtUp) {
			jsonError(w, http.StatusConflict, err.Error())
			return
		}
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	info := f.Info()
	s.log.Info("promoted", "applied_seq", info.AppliedSeq)
	writeJSON(w, http.StatusOK, map[string]any{
		"role":        info.Role,
		"applied_seq": info.AppliedSeq,
		"durable_seq": info.DurableSeq,
	})
}

// writeReplProm renders the replication series for /metrics.
func writeReplProm(w io.Writer, refs *replRefs) {
	if refs == nil {
		return
	}
	if refs.leader != nil {
		writeGaugeValue(w, "ringserve_repl_streams", "Open WAL replication streams (followers attached).", refs.leader.Streams())
	}
	if refs.follower == nil {
		return
	}
	info := refs.follower.Info()
	boolGauge := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	writeGaugeValue(w, "ringserve_repl_applied_seq", "Highest batch sequence applied to the local store.", int64(info.AppliedSeq))
	writeGaugeValue(w, "ringserve_repl_durable_seq", "Highest locally fsynced batch sequence.", int64(info.DurableSeq))
	writeGaugeValue(w, "ringserve_repl_leader_seq", "Highest known leader durable batch sequence.", int64(info.LeaderSeq))
	writeGaugeValue(w, "ringserve_repl_lag_batches", "Known leader batches not yet applied locally.", int64(info.LagBatches))
	writeFloatGauge(w, "ringserve_repl_lag_seconds", "Seconds since this replica was last caught up (0 when caught up).", info.LagSeconds)
	writeGaugeValue(w, "ringserve_repl_connected", "1 when the WAL stream to the leader is attached.", boolGauge(info.Connected))
	writeGaugeValue(w, "ringserve_repl_writable", "1 once promoted to a writable leader.", boolGauge(info.Writable))
}
