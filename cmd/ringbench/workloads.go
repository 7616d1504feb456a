package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/dict"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ring"
)

// workload is one named set of inputs; BENCHMARK.json and README.md say why
// each exists.
type workload struct {
	name string
	run  func(h *harness) error
}

var workloads = []workload{
	{"wgpb-cold", func(h *harness) error {
		return h.runWGPB(h.cfg.sc.coldTriples, h.cfg.sc.coldPassS, h.cfg.sc.coldVerify, h.cfg.sc.coldLadder)
	}},
	{"wgpb-hot", func(h *harness) error { return h.runWGPB(h.cfg.sc.hotTriples, h.cfg.sc.hotPassS, 1, 1) }},
	{"serve-socket", (*harness).runServeSocket},
	{"live-mixed", (*harness).runLiveMixed},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// readerCount is how many closed-loop readers serve-socket runs: one per
// processor the run may use, at most two, so the load is sized for the host
// and never queues behind itself on a single core.
func readerCount() int { return min(runtime.GOMAXPROCS(0), 2) }

func (h *harness) duration(share float64) time.Duration {
	return time.Duration(h.cfg.seconds * share * float64(time.Second))
}

// serveSlices is how many equal time slices a serving phase is cut into.
const serveSlices = 12

// finishServe counts failures and sets the end-to-end metrics of a serving
// phase that lasted dur. wrong says whether verification rejected sample i.
//
// The phase is cut into serveSlices equal slices; each slice has its own
// p50, p99 (over every request that completed in it, so GC pauses and
// scheduling delays stay in the tail) and verified-correct requests per
// second, and the reported value is the median over the slices. A burst of
// interference from the host then spoils a slice, not the run.
func (h *harness) finishServe(samples []reqSample, dur time.Duration, wrong func(i int, s reqSample) bool) {
	var ms [serveSlices][]float64
	var correct [serveSlices]int
	for i, s := range samples {
		k := min(int(s.at*serveSlices/dur), serveSlices-1)
		ms[k] = append(ms[k], float64(s.ns)/1e6)
		if !s.ok || wrong(i, s) {
			h.failed++
		} else {
			correct[k]++
		}
	}
	h.attempted += len(samples)
	var p50, p99, perSecond []float64
	fewest := len(samples)
	for k := range ms {
		sort.Float64s(ms[k])
		p50 = append(p50, percentile(ms[k], 50))
		p99 = append(p99, percentile(ms[k], 99))
		perSecond = append(perSecond, float64(correct[k])*serveSlices/dur.Seconds())
		fewest = min(fewest, len(ms[k]))
		h.logf("slice %d: %d requests, p50 %.3f ms, p99 %.3f ms, %.0f/s", k, len(ms[k]), p50[k], p99[k], perSecond[k])
	}
	h.queryMetrics(median(p50), median(p99), median(perSecond), fewest)
	h.samples["query"] = len(samples)
}

// fleet is the serve-socket client side: n connections, each with its own
// seeded request sequence.
func (h *harness) fleet(url string, n int) ([]*client, []*mixer) {
	clients, mixes := make([]*client, n), make([]*mixer, n)
	for i := range clients {
		clients[i], mixes[i] = newClient(url), newMixer(h.cfg.seed, i, h.cfg.sc)
	}
	return clients, mixes
}

// measuredPhase runs measure for -seconds on an untraced run. A traced run
// measures a quarter of that untraced, then a quarter traced, and reports the
// ratio of the two request counts as the tracing overhead. It returns the
// samples to report and how long their phase lasted.
func (h *harness) measuredPhase(measure func(dur time.Duration, tr *tracer) []reqSample) ([]reqSample, time.Duration) {
	if h.tr == nil {
		dur := h.duration(1)
		return measure(dur, nil), dur
	}
	dur := h.duration(0.25)
	untraced := len(measure(dur, nil))
	samples := measure(dur, h.tr)
	h.set("harness.trace_overhead_ratio", float64(len(samples))/float64(max(untraced, 1)), "ratio")
	return samples, dur
}

func (h *harness) runServeSocket() error {
	sc := h.cfg.sc
	h.logf("building %d-triple store, server and socket ...", sc.serveTriples)
	start := time.Now()
	e, err := h.buildServe()
	if err != nil {
		return err
	}
	defer e.close()
	h.set("setup_s", time.Since(start).Seconds(), "s")
	h.sizes["triples_requested"] = float64(sc.serveTriples)
	h.sizes["triples_distinct"] = float64(e.store.Len())
	h.sizes["index_bytes"] = float64(e.store.SizeBytes())
	h.sizes["queries"] = float64(len(e.pool))
	h.settle()

	clients, mixes := h.fleet(e.front.url, readerCount())
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	// Discarded warm-up: opens the connections and fills the cache with
	// the hot set, so the measured phase starts in steady state.
	e.readers(h.duration(1.0/6), nil, mixes, clients)

	samples, dur := h.measuredPhase(func(dur time.Duration, tr *tracer) []reqSample {
		return e.readers(dur, tr, mixes, clients)
	})
	wrong := h.verifyStatic(e, samples)
	h.finishServe(samples, dur, func(_ int, s reqSample) bool { return wrong[s.q] })
	h.set("index_bytes_per_triple", float64(e.store.SizeBytes())/float64(e.store.Len()), "B/triple")

	// query_p50_ms is only the miss path's if misses are a clear majority.
	hits := 0
	for _, s := range samples {
		if s.cached {
			hits++
		}
	}
	if ratio := float64(hits) / float64(max(len(samples), 1)); ratio < sc.hitLo || ratio > sc.hitHi {
		h.invalid = fmt.Sprintf("cache-hit ratio %.3f is outside [%.2f, %.2f]: the median would straddle hit and miss", ratio, sc.hitLo, sc.hitHi)
	}
	if h.tr == nil {
		return nil
	}
	h.serverMetrics(samples)
	if err := h.ladder(e); err != nil {
		return err
	}
	if err := h.storeFileMetrics(e.store); err != nil {
		return err
	}
	h.probeLayers(e.store.Ring(), nil)
	return nil
}

func (h *harness) runLiveMixed() error {
	sc := h.cfg.sc
	writeSeconds := h.cfg.seconds
	if h.tr != nil {
		writeSeconds /= 2 // an untraced and a traced quarter
	}
	h.logf("preloading %d triples into a data directory, checkpoint, server and socket ...", sc.liveTriples)
	start := time.Now()
	e, err := h.buildLive(writeSeconds)
	if err != nil {
		return err
	}
	defer e.close()
	h.set("setup_s", time.Since(start).Seconds(), "s")
	h.sizes["triples_requested"] = float64(sc.liveTriples)
	h.sizes["triples_distinct"] = float64(e.db.Len())
	h.sizes["queries"] = float64(len(e.pool))
	h.sizes["write_batches"] = float64(len(e.writes))
	h.set("index_bytes_per_triple", float64(e.db.Snapshot().SizeBytes())/float64(e.db.Len()), "B/triple")
	h.settle()

	readers, mixes := h.fleet(e.front.url, 1)
	reader, mix := readers[0], mixes[0]
	defer reader.close()
	writer := newClient(e.front.url)
	defer writer.close()
	e.readLoop(reader, mix, h.duration(1.0/6), nil) // discarded warm-up, before any write

	before := e.db.Stats()
	acks := make(chan []writeSample, 1)
	go func(begin time.Time) { acks <- e.writeLoop(writer, sc.writeRate, begin, h.tr) }(time.Now())
	samples, dur := h.measuredPhase(func(dur time.Duration, tr *tracer) []reqSample {
		return e.readLoop(reader, mix, dur, tr)
	})
	writes := <-acks // the writer has a fixed number of batches; wait for the last ack
	after := e.db.Stats()

	wrong := h.verifyLive(e, samples)
	h.finishServe(samples, dur, func(i int, _ reqSample) bool { return wrong[i] })

	var ackMS, lateMS []float64
	unacked := 0
	for _, w := range writes {
		if !w.acked {
			unacked++
			continue
		}
		ackMS = append(ackMS, float64(w.ackNS)/1e6)
		lateMS = append(lateMS, float64(w.lateNS)/1e6)
	}
	sort.Float64s(ackMS)
	sort.Float64s(lateMS)
	h.attempted += len(writes)
	h.fail(unacked, "%d of %d writes were not acknowledged with 200", unacked, len(writes))
	h.samples["write"] = len(writes)
	// Flush policy: every write is "sync": true — 200 means fsynced.
	h.set("write_ack_p50_ms", percentile(ackMS, 50), "ms")
	h.set("harness.sched_late_p99_ms", percentile(lateMS, 99), "ms")

	if h.tr != nil {
		h.serverMetrics(samples)
		if err := h.ladder(e); err != nil {
			return err
		}
		h.set("persist.write_ack_p99_ms", percentile(ackMS, 99), "ms")
		batches := float64(max(int(after.WAL.AppendedBatches-before.WAL.AppendedBatches), 1))
		h.set("persist.fsyncs_per_batch", float64(after.WAL.Fsyncs-before.WAL.Fsyncs)/batches, "count")
		userBytes := 0
		for _, m := range e.writes {
			for _, t := range m.triples {
				userBytes += len(t.S) + len(t.P) + len(t.O)
			}
		}
		h.set("persist.wal_bytes_per_user_byte", float64(after.WAL.AppendedBytes-before.WAL.AppendedBytes)/float64(max(userBytes, 1)), "ratio")
		h.set("persist.checkpoints", float64(after.Checkpoints-before.Checkpoints), "count")
		h.set("dynamic.compactions", float64(after.Compactions-before.Compactions), "count")
		h.set("dynamic.static_rings_end", float64(after.StaticRings), "count")
		if err := h.persistDirect(e); err != nil {
			return err
		}
	}

	// Durability: what was acknowledged must be what a reopen finds.
	lost, reopenMS, err := h.verifyDurable(e, writes)
	if err != nil {
		return err
	}
	h.fail(lost, "%d acknowledged writes are contradicted by the reopened store", lost)
	if h.tr != nil {
		h.set("persist.reopen_ms", reopenMS, "ms")
		h.set("persist.disk_bytes_per_triple", float64(dirBytes(e.dir))/float64(max(e.db.Len(), 1)), "B/triple")
		snap := e.db.Snapshot()
		rings := snap.Rings()
		if len(rings) == 0 {
			return fmt.Errorf("live-mixed: the reopened store has no static ring to probe")
		}
		big := rings[0]
		for _, r := range rings {
			if r.Len() > big.Len() {
				big = r
			}
		}
		h.probeLayers(big, nil)
		// Leap through the store's union iterator, and through a union over
		// the largest ring alone; ring.leap_s_ns is the same call bare.
		numSO, numP := snap.Domains()
		h.probeUnion("dynamic.union_leap_ns", snap, big.Triples(), int(numSO))
		one := dynamic.FromRings([]*ring.Ring{big}, numSO, numP, dynamic.Options{})
		defer one.Close()
		h.probeUnion("dynamic.union1_leap_ns", one.Snapshot(), big.Triples(), int(numSO))
	}
	return nil
}

// persistDirect times the write path without HTTP, on the quiesced DB:
// DB.InsertBatch with sync, and one forced DB.Checkpoint.
func (h *harness) persistDirect(e *serveEnv) error {
	const batches = 20
	var ms []float64
	for b := 0; b < batches; b++ {
		ts := make([]dict.StringTriple, h.cfg.sc.batchSize)
		for i := range ts {
			ts[i] = dict.StringTriple{S: fmt.Sprintf("d%d_%d", b, i), P: predicate(0), O: entity(graph.ID(i))}
		}
		t0 := time.Now()
		if _, err := e.db.InsertBatch(ts, true); err != nil {
			return fmt.Errorf("direct InsertBatch: %w", err)
		}
		t1 := time.Now()
		h.tr.add("persist.insert_batch", "server.handler", b, t0, t1)
		ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	h.set("persist.insert_batch_direct_ms", median(ms), "ms")
	t0 := time.Now()
	if err := e.db.Checkpoint(); err != nil {
		return fmt.Errorf("forced Checkpoint: %w", err)
	}
	t1 := time.Now()
	h.tr.add("persist.checkpoint", "", 0, t0, t1)
	h.set("persist.checkpoint_ms", float64(t1.Sub(t0).Nanoseconds())/1e6, "ms")
	return nil
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
