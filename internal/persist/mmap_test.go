package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	wcoring "repro"
	"repro/internal/dict"
	"repro/internal/ltj"
	"repro/internal/ring"
)

// openMmap opens a DB with thresholds small enough that flushes produce
// real ring files.
func openMmap(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Options{MemtableThreshold: 8, MaxRings: 64, NoBackground: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func insertN(t *testing.T, db *DB, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("%s%d", prefix, i), "p", "o")}, true); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
	}
}

// TestMmapCheckpointInstallsViews checks the near-free install property:
// after a checkpoint the store serves view-loaded rings
// backed by file mappings, and a subsequent checkpoint leaves already
// checkpointed rings untouched — the exact same *ring.Ring pointers stay
// installed, proving they were not re-decoded.
func TestMmapCheckpointInstallsViews(t *testing.T) {
	dir := t.TempDir()
	db := openMmap(t, dir)
	defer db.Close()

	insertN(t, db, "a", 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st := db.Stats()
	if st.MappedRings == 0 || st.MappedBytes == 0 {
		t.Fatalf("no mappings after checkpoint: %d rings, %d bytes", st.MappedRings, st.MappedBytes)
	}
	if st.LastInstallSeconds <= 0 {
		t.Fatalf("LastInstallSeconds = %v, want > 0", st.LastInstallSeconds)
	}
	if got := countP(t, db, "p"); got != 20 {
		t.Fatalf("after first checkpoint: count = %d, want 20", got)
	}

	gen1 := map[*ring.Ring]bool{}
	for _, r := range db.Snapshot().Rings() {
		gen1[r] = true
	}
	if len(gen1) == 0 {
		t.Fatal("no rings in snapshot after checkpoint")
	}

	insertN(t, db, "b", 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	surviving := 0
	for _, r := range db.Snapshot().Rings() {
		if gen1[r] {
			surviving++
		}
	}
	if surviving == 0 {
		t.Fatal("no first-generation ring pointer survived the second checkpoint: rings were re-decoded")
	}
	if got := countP(t, db, "p"); got != 40 {
		t.Fatalf("after second checkpoint: count = %d, want 40", got)
	}

	st = db.Stats()
	if st.MappedRings < surviving {
		t.Fatalf("MappedRings = %d, fewer than %d surviving mapped rings", st.MappedRings, surviving)
	}
}

// TestMmapReopenLoadsViews checks that Open view-loads the checkpointed
// rings from file mappings.
func TestMmapReopenLoadsViews(t *testing.T) {
	dir := t.TempDir()
	db := openMmap(t, dir)
	insertN(t, db, "a", 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := openMmap(t, dir)
	defer db2.Close()
	st := db2.Stats()
	if st.MappedRings == 0 || st.MappedBytes == 0 {
		t.Fatalf("reopened DB has no mappings: %+v", st)
	}
	if got := countP(t, db2, "p"); got != 20 {
		t.Fatalf("reopened count = %d, want 20", got)
	}
}

// TestCheckpointManifestInstallFails checks that a checkpoint whose
// manifest install fails leaves no ring serving from the files it wrote:
// the retry rewrites those files under the same names, and truncating a
// file a live ring reads through its mapping would kill the process with
// SIGBUS. Queries run throughout the failed and the retried checkpoint.
func TestCheckpointManifestInstallFails(t *testing.T) {
	dir := t.TempDir()
	db := openMmap(t, dir)
	defer db.Close()

	insertN(t, db, "a", 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mapped := db.Stats().MappedRings
	insertN(t, db, "b", 20)

	q, _, feasible, err := db.Compile([]wcoring.PatternString{{S: "?x", P: "p", O: "?y"}})
	if err != nil || !feasible {
		t.Fatalf("Compile: %v (feasible %v)", err, feasible)
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := db.Snapshot().Evaluate(q, ltj.Options{})
			if err == nil && len(res.Solutions) != 40 {
				err = fmt.Errorf("concurrent query: %d solutions, want 40", len(res.Solutions))
			}
			if err != nil {
				errc <- err
				return
			}
		}
	}()

	// A non-empty directory where the manifest's temp file goes makes
	// the install fail after every snapshot file has been written.
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.MkdirAll(filepath.Join(tmp, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with the manifest temp path blocked")
	}
	if got := db.Stats().MappedRings; got != mapped {
		t.Fatalf("MappedRings = %d after the failed install, want %d", got, mapped)
	}
	if err := os.RemoveAll(tmp); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("retried Checkpoint: %v", err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := db.Stats().MappedRings; got <= mapped {
		t.Fatalf("MappedRings = %d after the retry, want more than %d", got, mapped)
	}
	if got := countP(t, db, "p"); got != 40 {
		t.Fatalf("after the retry: count = %d, want 40", got)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2 := openMmap(t, dir)
	defer db2.Close()
	if got := countP(t, db2, "p"); got != 40 {
		t.Fatalf("reopened count = %d, want 40", got)
	}
}

// TestViewRingFileCorruptIsErrCorrupt checks that a ring file whose
// length matches its manifest entry but whose bytes ring.View rejects is
// reported as ErrCorrupt: the checkpoint install fails on that class of
// error before a manifest names the file.
func TestViewRingFileCorruptIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	ref := ringRef{Name: ringFileName(1), Triples: 20, Bytes: 8}
	if err := os.WriteFile(filepath.Join(dir, ref.Name), []byte("notaring"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := viewRingFile(dir, ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("viewRingFile = %v, want ErrCorrupt", err)
	}
}
