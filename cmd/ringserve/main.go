// Command ringserve is the long-running query server: it loads a
// serialized ring index (built by ringbuild) once and serves
// basic-graph-pattern queries over HTTP, with admission control, a result
// cache, Prometheus-text metrics and graceful drain on SIGTERM.
//
// Usage:
//
//	ringserve -index graph.ring [-addr :8080] [-parallel 0] ...
//	ringserve -data-dir ./data  [-addr :8080] ...
//
// With -index the server is read-only over a ring built by ringbuild.
// With -data-dir it serves a live store: the directory's manifest and
// write-ahead log are recovered before /readyz flips, and POST /insert
// and /delete append durably (200 after fsync, 202 when "sync": false).
//
// Replication (live mode):
//
//	ringserve -data-dir ./primary -repl-listen :7001            # leader
//	ringserve -data-dir ./replica -follow 127.0.0.1:7001        # read replica
//
// A leader with -repl-listen serves its snapshot files and a durable WAL
// stream to followers. A follower bootstraps from that endpoint, tails
// the WAL through the normal replay path, and serves read-only queries;
// mutations answer 421 with the leader's address, X-Ring-Min-Seq gives
// read-your-writes, and POST /repl/promote flips it into a writable
// leader after verifying it is caught up.
//
// Endpoints:
//
//	POST /query             {"pattern":[{"s":"?x","p":"winner","o":"?y"}], "limit":10}
//	GET  /query?q=?x+winner+?y
//	POST /insert            {"triples":[{"s":"a","p":"knows","o":"b"}]}   (live mode)
//	POST /delete            {"triples":[{"s":"a","p":"knows","o":"b"}]}   (live mode)
//	GET  /healthz           process liveness
//	GET  /readyz            503 until the index is loaded/recovered and self-checked
//	GET  /metrics           Prometheus text exposition
//	GET  /stats             index statistics as JSON
//	POST /cache/invalidate  drop every cached result
//
// The index loads asynchronously: the server binds and answers
// /healthz immediately, and /readyz flips to 200 once the self-check
// passes. On SIGTERM (or SIGINT) the server stops accepting queries,
// drains in-flight evaluations — in live mode it then checkpoints and
// seals the WAL — and exits 0, or exits 1 if the drain exceeds
// -drain-timeout and connections had to be torn down.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	wcoring "repro"
	"repro/internal/mman"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringserve: ")

	index := flag.String("index", "", "index file built by ringbuild (read-only mode)")
	dataDir := flag.String("data-dir", "", "data directory for live updates (WAL + snapshots)")
	useMmap := flag.Bool("mmap", false, "memory-map immutable index files instead of decoding them into the heap")
	memtable := flag.Int("memtable", 0, "live mode: memtable flush threshold in triples (0 = default)")
	maxRings := flag.Int("max-rings", 0, "live mode: static-ring budget before merging (0 = default)")
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission capacity in engine goroutines (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue bound (0 = 4x max-concurrent)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max time a request may wait for admission")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-query evaluation deadline")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "cap on client-requested deadlines")
	limit := flag.Int("limit", 1000, "default solution limit per query")
	maxLimit := flag.Int("max-limit", 100000, "cap on client-requested limits")
	parallel := flag.Int("parallel", 0, "LTJ worker goroutines per query (0 = sequential, -1 = one per CPU)")
	cacheEntries := flag.Int("cache-entries", 256, "result-cache entry bound (negative disables the cache)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache approximate byte bound")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "hard deadline for in-flight queries after SIGTERM")
	replListen := flag.String("repl-listen", "", "live mode: serve the replication endpoint (snapshot + WAL stream) on this address")
	follow := flag.String("follow", "", "follower mode: bootstrap from and tail this leader replication address (host:port)")
	advertise := flag.String("advertise", "", "client-facing address advertised to followers for mutation redirects (default: -addr)")
	maxReplicaLag := flag.Duration("max-replica-lag", 30*time.Second, "follower mode: /readyz turns 503 when known replication lag exceeds this")
	flag.Parse()
	if (*index == "") == (*dataDir == "") {
		fmt.Fprintln(os.Stderr, "ringserve: exactly one of -index or -data-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if (*replListen != "" || *follow != "") && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ringserve: -repl-listen and -follow require -data-dir (live mode)")
		os.Exit(2)
	}
	if *parallel < 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if *advertise == "" {
		*advertise = *addr
		if len(*advertise) > 0 && (*advertise)[0] == ':' {
			*advertise = "127.0.0.1" + *advertise
		}
	}

	srv, err := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DefaultLimit:   *limit,
		MaxLimit:       *maxLimit,
		Parallelism:    *parallel,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		MaxReplicaLag:  *maxReplicaLag,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Load the index in the background so /healthz (and a 503 /readyz)
	// answer immediately; loadErr resolves once the self-check passes. In
	// live mode this is WAL + manifest recovery; liveDB is published for
	// the drain path to close (final checkpoint + WAL seal).
	var liveDB atomic.Pointer[persist.DB]
	var follower atomic.Pointer[repl.Follower]
	loadErr := make(chan error, 1)
	switch {
	case *follow != "":
		srv.ExpectLive() // mutations 503 (retryable), not 501, during bootstrap
		go func() {
			loadErr <- openFollower(srv, &liveDB, &follower, *dataDir, *follow, *memtable, *maxRings, *useMmap)
		}()
	case *dataDir != "":
		srv.ExpectLive() // mutations 503 (retryable), not 501, during recovery
		go func() { loadErr <- openLive(srv, &liveDB, *dataDir, *memtable, *maxRings, *useMmap) }()
	default:
		go func() { loadErr <- loadStore(srv, *index, *useMmap) }()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	source := *index
	if *dataDir != "" {
		source = *dataDir + " (live)"
	}
	if *follow != "" {
		source = *dataDir + " (follower of " + *follow + ")"
	}
	log.Printf("listening on %s (%s loading)", *addr, source)

	// The replication endpoint starts only after the local store is open:
	// its handlers serve that store's manifest and WAL.
	var replSrv *http.Server

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	for {
		select {
		case err := <-loadErr:
			if err != nil {
				log.Printf("index load failed: %v", err)
				httpSrv.Close()
				os.Exit(1)
			}
			log.Printf("index ready")
			if *replListen != "" {
				leader := repl.NewLeader(liveDB.Load(), repl.LeaderOptions{Advertise: *advertise})
				srv.SetReplLeader(leader)
				replSrv = &http.Server{
					Addr:              *replListen,
					Handler:           leader.Handler(),
					ReadHeaderTimeout: 10 * time.Second,
				}
				//ringlint:goroutine-exception -- exits when drain calls replSrv.Close(); the error branch only logs
				go func(rs *http.Server) {
					if err := rs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
						log.Printf("replication listener failed: %v", err)
					}
				}(replSrv)
				log.Printf("replication endpoint on %s (advertising %s)", *replListen, *advertise)
			}
		case err := <-serveErr:
			if !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
			return
		case s := <-sig:
			log.Printf("received %v, draining (hard deadline %v)", s, *drainTimeout)
			srv.BeginDrain()
			//ringlint:detach -- process shutdown: there is no inbound context to inherit
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := httpSrv.Shutdown(ctx)
			cancel()
			if replSrv != nil {
				// WAL streams are long-lived by design: abort them rather
				// than waiting (followers reconnect and resume by sequence).
				replSrv.Close()
			}
			if err != nil {
				log.Printf("drain deadline exceeded, closing: %v", err)
				httpSrv.Close()
				closeNode(&liveDB, &follower)
				os.Exit(1)
			}
			closeNode(&liveDB, &follower)
			log.Printf("drain complete")
			return
		}
	}
}

// openLive recovers the data directory (manifest snapshot + WAL replay)
// and installs the live DB; /readyz flips only after recovery and the
// self-check probe pass.
func openLive(srv *server.Server, slot *atomic.Pointer[persist.DB], dir string, memtable, maxRings int, useMmap bool) error {
	start := time.Now()
	db, err := persist.Open(dir, persist.Options{
		MemtableThreshold: memtable,
		MaxRings:          maxRings,
		Mmap:              useMmap,
	})
	if err != nil {
		return fmt.Errorf("opening %s: %w", dir, err)
	}
	if err := srv.SetLive(db); err != nil {
		db.Close()
		return err
	}
	slot.Store(db)
	st := db.Stats()
	srv.SetLoadInfo(server.LoadInfo{
		Mode:        loadMode(useMmap),
		BytesMapped: st.MappedBytes,
		Regions:     st.MappedRings,
		Seconds:     time.Since(start).Seconds(),
	})
	log.Printf("recovered %s: %d triples (replayed %d WAL batches, torn tail: %v, mode %s) in %v",
		dir, st.Triples, st.RecoveryBatches, st.RecoveryTorn, loadMode(useMmap), time.Since(start).Round(time.Millisecond))
	return nil
}

// openFollower bootstraps (or resumes) a read replica from the leader's
// replication endpoint, opens the local store through the normal recovery
// path, and starts the WAL tail loop. /readyz flips only after the
// self-check probe passes; mutations are redirected (421) to the leader.
func openFollower(srv *server.Server, slot *atomic.Pointer[persist.DB], fslot *atomic.Pointer[repl.Follower], dir, leader string, memtable, maxRings int, useMmap bool) error {
	start := time.Now()
	f, err := repl.OpenFollower(repl.FollowerOptions{
		Dir:    dir,
		Leader: leader,
		Open: persist.Options{
			MemtableThreshold: memtable,
			MaxRings:          maxRings,
			Mmap:              useMmap,
		},
	})
	if err != nil {
		return fmt.Errorf("following %s: %w", leader, err)
	}
	db := f.DB()
	if err := srv.SetLive(db); err != nil {
		f.Close()
		return err
	}
	srv.SetFollower(f)
	f.Start()
	fslot.Store(f)
	slot.Store(db)
	st := db.Stats()
	srv.SetLoadInfo(server.LoadInfo{
		Mode:        loadMode(useMmap),
		BytesMapped: st.MappedBytes,
		Regions:     st.MappedRings,
		Seconds:     time.Since(start).Seconds(),
	})
	log.Printf("following %s from %s: %d triples, resuming at seq %d (mode %s) in %v",
		leader, dir, st.Triples, db.NextSeq(), loadMode(useMmap), time.Since(start).Round(time.Millisecond))
	return nil
}

func loadMode(useMmap bool) string {
	if useMmap {
		return "mmap"
	}
	return "decode"
}

// closeNode shuts down whichever store this process opened: the follower
// (which stops the tail loop and closes its DB) or a plain live DB.
// Never both — the follower owns its DB and closes it exactly once.
func closeNode(slot *atomic.Pointer[persist.DB], fslot *atomic.Pointer[repl.Follower]) {
	if f := fslot.Load(); f != nil {
		start := time.Now()
		if err := f.Close(); err != nil {
			log.Printf("closing follower: %v", err)
			return
		}
		log.Printf("follower stopped, data dir checkpointed and sealed in %v", time.Since(start).Round(time.Millisecond))
		return
	}
	closeLive(slot)
}

// closeLive checkpoints and seals the live DB, if one was opened. Runs
// after the HTTP server has stopped accepting requests, so no writer can
// race the final checkpoint.
func closeLive(slot *atomic.Pointer[persist.DB]) {
	db := slot.Load()
	if db == nil {
		return
	}
	start := time.Now()
	if err := db.Close(); err != nil {
		log.Printf("closing data dir: %v", err)
		return
	}
	log.Printf("data dir checkpointed and sealed in %v", time.Since(start).Round(time.Millisecond))
}

// staticRegion pins the static index mapping for the process lifetime:
// the store's word slices alias the mapping and are invisible to the
// garbage collector, so the Region must stay reachable as long as any
// query can touch the index.
var staticRegion *mman.Region

// loadStore reads (or with -mmap, maps) the index file and installs it
// into the server (which self-checks it before going ready).
func loadStore(srv *server.Server, path string, useMmap bool) error {
	start := time.Now()
	var store *wcoring.Store
	var mappedBytes int64
	var regions int
	if useMmap {
		reg, err := mman.Map(path)
		if err != nil {
			return err
		}
		store, err = wcoring.ViewStore(reg.Bytes())
		if err != nil {
			reg.Release()
			return fmt.Errorf("mapping %s: %w", path, err)
		}
		staticRegion = reg
		mappedBytes = int64(reg.Len())
		regions = 1
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		store, err = wcoring.ReadStore(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	if err := srv.SetStore(store); err != nil {
		return err
	}
	srv.SetLoadInfo(server.LoadInfo{
		Mode:        loadMode(useMmap),
		BytesMapped: mappedBytes,
		Regions:     regions,
		Seconds:     time.Since(start).Seconds(),
	})
	log.Printf("loaded %s: %d triples (mode %s) in %v", path, store.Len(), loadMode(useMmap), time.Since(start).Round(time.Millisecond))
	return nil
}
