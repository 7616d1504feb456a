// Command ringstats inspects a serialized ring index (built by
// ringbuild): global statistics, space accounting, the mapped load's
// layout, the predicate frequency head, and — with -pattern — the
// on-the-fly cardinality estimate of Section 4.3 for a triple pattern.
// With -data-dir it instead inspects a live-update data directory
// (manifest version, per-ring sizes, WAL segments, estimated recovery
// replay, and — for a replica — the replication position) without
// opening or mutating it — safe against a running server.
//
// Usage:
//
//	ringstats -index graph.ring [-top 10] [-pattern '?x p0 ?y']
//	ringstats -data-dir ./data
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	wcoring "repro"
	"repro/internal/mman"
	"repro/internal/persist"
	"repro/internal/repl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringstats: ")

	index := flag.String("index", "", "index file built by ringbuild")
	dataDir := flag.String("data-dir", "", "live-update data directory to inspect (read-only)")
	top := flag.Int("top", 10, "show the k most frequent predicates")
	pattern := flag.String("pattern", "", "report the cardinality of one 's p o' pattern ('?x' = variable)")
	flag.Parse()
	if (*index == "") == (*dataDir == "") {
		fmt.Fprintln(os.Stderr, "ringstats: exactly one of -index or -data-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if *dataDir != "" {
		inspectDataDir(*dataDir)
		return
	}

	start := time.Now()
	reg, err := mman.Map(*index)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Release()
	store, err := wcoring.ViewStore(reg.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	loadTime := time.Since(start)
	r := store.Ring()
	d := store.Dictionary()

	st := r.Stats()
	fmt.Printf("triples:             %d\n", st.Triples)
	fmt.Printf("distinct subjects:   %d\n", st.DistinctSubjects)
	fmt.Printf("distinct predicates: %d\n", st.DistinctPredicates)
	fmt.Printf("distinct objects:    %d\n", st.DistinctObjects)
	fmt.Printf("subject/object ids:  %d   predicate ids: %d\n", r.NumSO(), r.NumP())
	fmt.Printf("index size:          %d bytes (%.2f bytes/triple; the index replaces the data)\n",
		r.SizeBytes(), r.BytesPerTriple())
	layout, err := wcoring.ReadStoreLayout(reg.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	mode := "file mapping"
	if !reg.Mapped() {
		mode = "file read (platform fallback: no mapping)"
	}
	fmt.Printf("load mode:           %s\n", mode)
	fmt.Printf("mapped bytes:        %d\n", reg.Len())
	fmt.Printf("load time:           %v\n", loadTime.Round(time.Microsecond))
	fmt.Printf("dict section:        %d bytes + %d pad (padded format: %v)\n",
		layout.DictBytes, layout.PadBytes, layout.Padded)
	align := "8-byte aligned (zero-copy)"
	if !layout.Aligned {
		align = "unaligned (legacy file: words are copied on view)"
	}
	fmt.Printf("ring section:        offset %d, %s\n", layout.RingOffset, align)

	if *top > 0 {
		fmt.Printf("\ntop %d predicates:\n", *top)
		for _, ps := range r.TopPredicates(*top) {
			name, _ := d.DecodeP(ps.P)
			fmt.Printf("  %-30s %10d triples (%.2f%%)\n",
				name, ps.Count, 100*float64(ps.Count)/float64(st.Triples))
		}
	}

	if *pattern != "" {
		fields := strings.Fields(*pattern)
		if len(fields) != 3 {
			log.Fatalf("pattern %q: want 3 components", *pattern)
		}
		count, err := patternCount(store, fields)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npattern %q matches %d triples (O(log U) estimate per §4.3)\n", *pattern, count)
	}
}

// inspectDataDir prints the persistence report for a live-update data
// directory.
func inspectDataDir(dir string) {
	rep, err := persist.Inspect(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("manifest version:    %d (generation %d)\n", rep.ManifestVersion, rep.Generation)
	fmt.Printf("triples (snapshot):  %d\n", rep.Triples)
	fmt.Printf("subject/object ids:  %d   predicate ids: %d\n", rep.NumSO, rep.NumP)
	if rep.DictFile != "" {
		fmt.Printf("dictionary:          %s (%d bytes)\n", rep.DictFile, rep.DictBytes)
	}
	var ringBytes int64
	fmt.Printf("static rings:        %d\n", len(rep.Rings))
	for _, r := range rep.Rings {
		ringBytes += r.Bytes
		bpt := 0.0
		if r.Triples > 0 {
			bpt = float64(r.Bytes) / float64(r.Triples)
		}
		fmt.Printf("  %-24s %10d triples %12d bytes (%.2f bytes/triple)\n", r.Name, r.Triples, r.Bytes, bpt)
	}
	if ringBytes > 0 {
		fmt.Printf("ring bytes total:    %d\n", ringBytes)
	}
	fmt.Printf("wal floor:           segment %d\n", rep.WALFloor)
	fmt.Printf("wal segments:        %d\n", len(rep.Segments))
	for _, s := range rep.Segments {
		state := "sealed"
		switch {
		case s.Err != "":
			state = "CORRUPT: " + s.Err
		case s.Torn:
			state = "torn tail (recoverable)"
		case s.Live:
			state = "live"
		}
		fmt.Printf("  wal-%016x.log %10d bytes  %6d batches %7d ops  %s\n",
			s.Seq, s.Bytes, s.Batches, s.Ops, state)
	}
	fmt.Printf("estimated replay:    %d batches / %d ops on next open\n", rep.ReplayBatches, rep.ReplayOps)
	fmt.Printf("durable seq:         %d (snapshot covers through %d)\n", rep.DurableSeq, rep.SnapshotLastSeq)
	if pos, err := repl.ReadPosition(dir); err != nil {
		log.Fatal(err)
	} else if pos != nil {
		role := "follower (read-only)"
		if pos.Writable {
			role = "promoted leader (writable)"
		}
		fmt.Printf("replication role:    %s\n", role)
		fmt.Printf("replication leader:  %s", pos.Leader)
		if pos.LeaderAddr != "" {
			fmt.Printf(" (clients: %s)", pos.LeaderAddr)
		}
		fmt.Println()
		lag := int64(pos.LeaderSeq) - int64(pos.AppliedSeq)
		if lag < 0 {
			lag = 0
		}
		fmt.Printf("replication seqs:    applied %d / leader %d (lag %d batches, as of %s)\n",
			pos.AppliedSeq, pos.LeaderSeq, lag,
			time.UnixMilli(pos.UpdatedMs).UTC().Format(time.RFC3339))
	}
}

// patternCount resolves the string pattern and asks the ring for its
// cardinality.
func patternCount(store *wcoring.Store, fields []string) (int, error) {
	d := store.Dictionary()
	mk := func(raw string, pred bool) (wcoring.Term, bool) {
		if strings.HasPrefix(raw, "?") {
			return wcoring.Var(raw[1:]), true
		}
		var id wcoring.ID
		var ok bool
		if pred {
			id, ok = d.EncodeP(raw)
		} else {
			id, ok = d.EncodeSO(raw)
		}
		if !ok {
			return wcoring.Term{}, false
		}
		return wcoring.Const(id), true
	}
	s, ok1 := mk(fields[0], false)
	p, ok2 := mk(fields[1], true)
	o, ok3 := mk(fields[2], false)
	if !ok1 || !ok2 || !ok3 {
		return 0, nil // a constant absent from the data: zero matches
	}
	return store.Ring().PatternCount(wcoring.TP(s, p, o)), nil
}
