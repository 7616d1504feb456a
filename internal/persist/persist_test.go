package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	wcoring "repro"
	"repro/internal/dict"
	"repro/internal/ltj"
)

func tr(s, p, o string) dict.StringTriple { return dict.StringTriple{S: s, P: p, O: o} }

// openTest opens a DB in dir with small thresholds so flushes and merges
// actually happen.
func openTest(t *testing.T, dir string, background bool) *DB {
	t.Helper()
	db, err := Open(dir, Options{MemtableThreshold: 8, MaxRings: 2, NoBackground: !background})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// countP evaluates {?x p ?y} and returns the solution count.
func countP(t *testing.T, db *DB, p string) int {
	t.Helper()
	q, _, feasible, err := db.Compile([]wcoring.PatternString{{S: "?x", P: p, O: "?y"}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !feasible {
		return 0
	}
	res, err := db.Snapshot().Evaluate(q, ltj.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return len(res.Solutions)
}

func TestInsertQueryReopen(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, true)
	n, err := db.InsertBatch([]dict.StringTriple{
		tr("alice", "knows", "bob"),
		tr("bob", "knows", "carol"),
		tr("alice", "likes", "carol"),
		tr("alice", "knows", "bob"), // duplicate
	}, true)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if n != 3 {
		t.Fatalf("InsertBatch applied %d, want 3", n)
	}
	if got := countP(t, db, "knows"); got != 2 {
		t.Fatalf("knows count = %d, want 2", got)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: state must come back from manifest + WAL.
	db2 := openTest(t, dir, true)
	defer db2.Close()
	if got := db2.Len(); got != 3 {
		t.Fatalf("reopened Len = %d, want 3", got)
	}
	if got := countP(t, db2, "knows"); got != 2 {
		t.Fatalf("reopened knows count = %d, want 2", got)
	}
}

func TestDeletePersists(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	db.InsertBatch([]dict.StringTriple{tr("a", "p", "b"), tr("b", "p", "c")}, true)
	n, _, err := db.Mutate(OpDelete, []dict.StringTriple{tr("a", "p", "b"), tr("x", "p", "y")}, true)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if n != 1 {
		t.Fatalf("delete removed %d, want 1", n)
	}
	db.Close()

	db2 := openTest(t, dir, false)
	defer db2.Close()
	if got := db2.Len(); got != 1 {
		t.Fatalf("reopened Len = %d, want 1", got)
	}
	if got := countP(t, db2, "p"); got != 1 {
		t.Fatalf("reopened count = %d, want 1", got)
	}
}

// TestRecoveryWithoutCheckpoint kills the DB without Close (no final
// checkpoint): everything must come back from the WAL alone.
func TestRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 40; i++ {
		if _, err := db.InsertBatch([]dict.StringTriple{
			tr(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)),
		}, true); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Abandon without Close: simulates a crash after the last fsync ack.
	db.wal.Close()
	db.store.Close()

	db2 := openTest(t, dir, false)
	defer db2.Close()
	if got := db2.Len(); got != 40 {
		t.Fatalf("recovered Len = %d, want 40", got)
	}
	st := db2.Stats()
	if st.RecoveryBatches == 0 {
		t.Fatal("expected WAL batches to be replayed")
	}
}

// TestCheckpointShrinksReplay verifies the floor advances: after a
// checkpoint, reopening replays (almost) nothing.
func TestCheckpointShrinksReplay(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 30; i++ {
		db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db.wal.Close()
	db.store.Close()

	db2 := openTest(t, dir, false)
	defer db2.Close()
	st := db2.Stats()
	if st.RecoveryBatches != 0 {
		t.Fatalf("replayed %d batches after checkpoint, want 0", st.RecoveryBatches)
	}
	if got := db2.Len(); got != 30 {
		t.Fatalf("Len = %d, want 30", got)
	}
	if st.ManifestVersion == 0 {
		t.Fatal("manifest version still 0 after checkpoint")
	}
}

// TestGC: checkpoints must not accumulate obsolete segments or snapshot
// files.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for round := 0; round < 4; round++ {
		for i := 0; i < 20; i++ {
			db.InsertBatch([]dict.StringTriple{
				tr(fmt.Sprintf("s%d-%d", round, i), "p", "o"),
			}, true)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	var segs, dicts int
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := segmentSeq(e.Name()); ok {
			segs++
		}
		if len(e.Name()) > 5 && e.Name()[:5] == "dict-" {
			dicts++
		}
	}
	if segs != 1 {
		t.Fatalf("%d WAL segments after checkpoints, want 1 (the active one)", segs)
	}
	if dicts != 1 {
		t.Fatalf("%d dict files after checkpoints, want 1", dicts)
	}
	db.Close()
}

// TestTornTailTruncated is the pure-library crash variant: truncate the
// WAL mid-record and corrupt the tail, then recover. The torn batch must
// vanish; everything before it must survive.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 10; i++ {
		db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true)
	}
	seg := db.wal.segment.Load()
	db.wal.Close()
	db.store.Close()

	// Tear the tail: chop the last 5 bytes of the active segment.
	path := filepath.Join(dir, segmentName(seg))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2 := openTest(t, dir, false)
	if got := db2.Len(); got != 9 {
		t.Fatalf("recovered Len = %d, want 9 (torn batch dropped)", got)
	}
	if !db2.Stats().RecoveryTorn {
		t.Fatal("recovery did not report the torn tail")
	}
	db2.Close()

	// After truncation the segment replays cleanly.
	db3 := openTest(t, dir, false)
	defer db3.Close()
	if got := db3.Len(); got != 9 {
		t.Fatalf("second recovery Len = %d, want 9", got)
	}
}

// TestTornHeaderSegmentRemoved: a crash between segment create and the
// header fsync leaves the active segment shorter than its 16-byte
// header. Recovery must delete the runt and reuse its sequence number
// rather than truncate it: a truncated runt, once sealed under a newer
// segment by a second crash, would read as interior corruption forever.
func TestTornHeaderSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	db.InsertBatch([]dict.StringTriple{tr("a", "p", "b")}, true)
	// Close checkpoints, which rotates: the active segment is header-only.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(segs))
	}
	active := segs[len(segs)-1]
	// Tear the header: crash before the 16 header bytes became durable.
	if err := os.Truncate(filepath.Join(dir, segmentName(active)), 7); err != nil {
		t.Fatal(err)
	}

	db2 := openTest(t, dir, false)
	if got := db2.Len(); got != 1 {
		t.Fatalf("recovered Len = %d, want 1", got)
	}
	if !db2.Stats().RecoveryTorn {
		t.Fatal("recovery did not report the torn header")
	}
	if got := db2.wal.segment.Load(); got != active {
		t.Fatalf("active segment = %d, want %d (runt's number reused)", got, active)
	}
	db2.InsertBatch([]dict.StringTriple{tr("c", "p", "d")}, true)
	// Crash again without Close: the second recovery must see a gapless
	// segment sequence (no runt left behind) and replay cleanly.
	db2.wal.Close()
	db2.store.Close()

	db3 := openTest(t, dir, false)
	defer db3.Close()
	if got := db3.Len(); got != 2 {
		t.Fatalf("second recovery Len = %d, want 2", got)
	}
}

// TestBatchTooLarge: a batch whose encoded record would exceed the
// replay size bound is rejected before it is written or applied —
// otherwise it would be acked as durable yet read back on recovery as
// a torn write and silently dropped.
func TestBatchTooLarge(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	huge := strings.Repeat("x", maxRecordBytes)
	if _, err := db.InsertBatch([]dict.StringTriple{tr(huge, "p", "o")}, true); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized InsertBatch err = %v, want ErrTooLarge", err)
	}
	if got := db.Len(); got != 0 {
		t.Fatalf("rejected batch was applied: Len = %d", got)
	}
	if _, err := db.InsertBatch([]dict.StringTriple{tr("a", "p", "b")}, true); err != nil {
		t.Fatalf("insert after rejection: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTest(t, dir, false)
	defer db2.Close()
	if got := db2.Len(); got != 1 {
		t.Fatalf("reopened Len = %d, want 1", got)
	}
}

// TestTailBitFlipTruncates: a flipped byte in the final record reads as
// a torn tail (checksum catches it) and recovery drops that record only.
func TestTailBitFlipTruncates(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 10; i++ {
		db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true)
	}
	seg := db.wal.segment.Load()
	db.wal.Close()
	db.store.Close()

	path := filepath.Join(dir, segmentName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openTest(t, dir, false)
	defer db2.Close()
	if got := db2.Len(); got != 9 {
		t.Fatalf("recovered Len = %d, want 9 (flipped record dropped)", got)
	}
}

// TestSealedSegmentCorruptionFails: the same flip inside a sealed (non
// final) segment is interior corruption and Open must refuse.
func TestSealedSegmentCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 5; i++ {
		db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true)
	}
	sealed, err := db.wal.rotate()
	if err != nil {
		t.Fatal(err)
	}
	db.InsertBatch([]dict.StringTriple{tr("after", "p", "o")}, true)
	db.wal.Close()
	db.store.Close()

	path := filepath.Join(dir, segmentName(sealed.Sealed))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{NoBackground: true}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestChecksumValidGarbageFails: a record whose checksum matches but
// whose payload is malformed is corruption even in the active segment.
func TestChecksumValidGarbageFails(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	db.InsertBatch([]dict.StringTriple{tr("a", "p", "b")}, true)
	seg := db.wal.segment.Load()
	db.wal.Close()
	db.store.Close()

	// Append a well-framed record with garbage payload.
	payload := []byte("not a batch, definitely")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seg)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(hdr[:])
	f.Write(payload)
	f.Close()

	if _, err := Open(dir, Options{NoBackground: true}); err == nil {
		t.Fatal("Open accepted a checksum-valid malformed record")
	}
}

// TestManifestCorruptionDetected: a flipped manifest byte fails the CRC.
func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	db.InsertBatch([]dict.StringTriple{tr("a", "p", "b")}, true)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	path := filepath.Join(dir, manifestName)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir, Options{NoBackground: true}); err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
}

// TestSnapshotFileSizeChecked: a snapshot file whose length differs from
// the one its manifest recorded — bytes appended, bytes cut, the file
// emptied — fails Open with ErrCorrupt naming the file, rather than
// loading a ring or dictionary with garbage beside it.
func TestSnapshotFileSizeChecked(t *testing.T) {
	cases := []struct {
		name   string
		glob   string
		resize func([]byte) []byte
	}{
		{"ring+1", "ring-*.ring", func(b []byte) []byte { return append(b, 0) }},
		{"ring-1", "ring-*.ring", func(b []byte) []byte { return b[:len(b)-1] }},
		{"ring-empty", "ring-*.ring", func([]byte) []byte { return nil }},
		{"dict+1", "dict-*.dict", func(b []byte) []byte { return append(b, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTest(t, dir, false)
			for i := 0; i < 20; i++ {
				db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			db.Close()

			files, _ := filepath.Glob(filepath.Join(dir, c.glob))
			if len(files) == 0 {
				t.Fatalf("no %s file after checkpoint", c.glob)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], c.resize(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, Options{NoBackground: true})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), filepath.Base(files[0])) {
				t.Errorf("error %q does not name %s", err, filepath.Base(files[0]))
			}
		})
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 20; i++ {
		db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true)
	}
	db.Checkpoint()
	for i := 0; i < 7; i++ {
		db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("t%d", i), "q", "o")}, true)
	}
	db.wal.Close()
	db.store.Close()

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if rep.ManifestVersion != 1 {
		t.Fatalf("ManifestVersion = %d, want 1", rep.ManifestVersion)
	}
	if rep.Triples != 20 {
		t.Fatalf("manifest Triples = %d, want 20", rep.Triples)
	}
	if rep.ReplayBatches != 7 {
		t.Fatalf("ReplayBatches = %d, want 7", rep.ReplayBatches)
	}
	if len(rep.Rings) == 0 {
		t.Fatal("no rings in report")
	}
	// Inspect must be read-only: opening afterwards still replays.
	db2 := openTest(t, dir, false)
	defer db2.Close()
	if got := db2.Len(); got != 27 {
		t.Fatalf("Len after Inspect+reopen = %d, want 27", got)
	}
}

// TestGroupCommitConcurrentWriters hammers the DB from many goroutines
// with sync acks; group commit must keep every acked batch and the fsync
// count should be well below the batch count.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, true)
	const writers, per = 8, 25
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				_, err := db.InsertBatch([]dict.StringTriple{
					tr(fmt.Sprintf("w%d-s%d", w, i), fmt.Sprintf("p%d", w), "o"),
				}, true)
				if err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errCh; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	if got := db.Len(); got != writers*per {
		t.Fatalf("Len = %d, want %d", got, writers*per)
	}
	db.Close()

	db2 := openTest(t, dir, true)
	defer db2.Close()
	if got := db2.Len(); got != writers*per {
		t.Fatalf("recovered Len = %d, want %d", got, writers*per)
	}
}

// TestDifferential replays a randomized interleaving of inserts,
// deletes, checkpoints, and recoveries, comparing every query against a
// flat map oracle. Run under -race this also exercises the reader/writer
// contract.
func TestDifferential(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, true)
	oracle := map[dict.StringTriple]bool{}
	rng := rand.New(rand.NewSource(99))

	preds := []string{"p0", "p1", "p2"}
	randTriple := func() dict.StringTriple {
		return tr(fmt.Sprintf("n%d", rng.Intn(60)), preds[rng.Intn(len(preds))], fmt.Sprintf("n%d", rng.Intn(60)))
	}
	check := func(stage string) {
		t.Helper()
		for _, p := range preds {
			want := 0
			for tp := range oracle {
				if tp.P == p {
					want++
				}
			}
			if got := countP(t, db, p); got != want {
				t.Fatalf("%s: count(%s) = %d, oracle %d", stage, p, got, want)
			}
		}
		want := len(oracle)
		if got := db.Len(); got != want {
			t.Fatalf("%s: Len = %d, oracle %d", stage, got, want)
		}
	}

	for step := 0; step < 400; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			batch := make([]dict.StringTriple, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = randTriple()
			}
			if _, err := db.InsertBatch(batch, rng.Intn(2) == 0); err != nil {
				t.Fatalf("insert: %v", err)
			}
			for _, tp := range batch {
				oracle[tp] = true
			}
		case r < 80:
			batch := make([]dict.StringTriple, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = randTriple()
			}
			if _, _, err := db.Mutate(OpDelete, batch, rng.Intn(2) == 0); err != nil {
				t.Fatalf("delete: %v", err)
			}
			for _, tp := range batch {
				delete(oracle, tp)
			}
		case r < 90:
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		default:
			// Crash-free restart (recovery path): close and reopen.
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			db = openTest(t, dir, true)
		}
		if step%25 == 0 {
			check(fmt.Sprintf("step %d", step))
		}
	}
	check("final")
	db.Close()
}
