package persist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dict"
)

// collectStream runs StreamWAL from seq `from` in a goroutine and
// returns a channel of records plus a cancel func.
func collectStream(t *testing.T, db *DB, from uint64) (<-chan TailRecord, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	recs := make(chan TailRecord, 256)
	errc := make(chan error, 1)
	go func() {
		errc <- db.StreamWAL(ctx, from, 0, func(r TailRecord) error {
			recs <- r
			return nil
		})
		close(recs)
	}()
	return recs, cancel, errc
}

// TestStreamWALCatchUpAndTail: records written before the stream starts
// arrive from disk, records written after arrive from the live tail, in
// one gapless sequence.
func TestStreamWALCatchUpAndTail(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	defer db.Close()

	for i := 0; i < 5; i++ {
		if _, err := db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true); err != nil {
			t.Fatal(err)
		}
	}

	recs, cancel, errc := collectStream(t, db, 1)
	defer cancel()

	var got []TailRecord
	for len(got) < 5 {
		select {
		case r := <-recs:
			got = append(got, r)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d records", len(got))
		}
	}

	// Live tail: write five more while the stream is attached.
	for i := 5; i < 10; i++ {
		if _, err := db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true); err != nil {
			t.Fatal(err)
		}
	}
	for len(got) < 10 {
		select {
		case r := <-recs:
			got = append(got, r)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d records", len(got))
		}
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if len(r.Payload) < 12 {
			t.Fatalf("record %d payload %d bytes, want >= 12", i, len(r.Payload))
		}
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", err)
	}
}

// TestStreamWALSnapshotRequired: once a checkpoint folds batches into
// the snapshot and GC drops their segments, a stream from seq 1 must get
// ErrSnapshotRequired rather than silently skipping history.
func TestStreamWALSnapshotRequired(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	defer db.Close()

	for i := 0; i < 10; i++ {
		if _, err := db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	err := db.StreamWAL(context.Background(), 1, 0, func(TailRecord) error { return nil })
	if !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("StreamWAL(from=1) after checkpoint = %v, want ErrSnapshotRequired", err)
	}

	// From the snapshot boundary the stream is fine (and ends cleanly on
	// Close).
	info := db.ManifestSnapshot()
	if info.LastSeq != 10 {
		t.Fatalf("manifest LastSeq = %d, want 10", info.LastSeq)
	}
	recs, cancel, _ := collectStream(t, db, info.LastSeq+1)
	defer cancel()
	if _, err := db.InsertBatch([]dict.StringTriple{tr("post", "p", "o")}, true); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-recs:
		if r.Seq != 11 {
			t.Fatalf("first post-snapshot record seq %d, want 11", r.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for post-snapshot record")
	}
}

// TestApplyReplicatedRoundTrip: records shipped from one DB and applied
// to another preserve sequence numbers, survive restart, and yield the
// same triples.
func TestApplyReplicatedRoundTrip(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := openTest(t, ldir, false)
	defer leader.Close()
	follower := openTest(t, fdir, false)

	for i := 0; i < 8; i++ {
		if _, err := leader.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := leader.Mutate(OpDelete, []dict.StringTriple{tr("s3", "p", "o")}, true); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shipped := 0
	errc := make(chan error, 1)
	go func() {
		errc <- leader.StreamWAL(ctx, 1, 0, func(r TailRecord) error {
			b, err := DecodeRecordPayload(r.Payload)
			if err != nil {
				return err
			}
			if err := follower.ApplyReplicated(b, true); err != nil {
				return err
			}
			shipped++
			if shipped == 9 {
				cancel()
			}
			return nil
		})
	}()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("stream: %v", err)
	}

	if got, want := follower.AppliedSeq(), uint64(9); got != want {
		t.Fatalf("follower applied seq %d, want %d", got, want)
	}
	if got, want := follower.DurableSeq(), uint64(9); got != want {
		t.Fatalf("follower durable seq %d, want %d", got, want)
	}
	if got, want := countP(t, follower, "p"), 7; got != want {
		t.Fatalf("follower has %d p-triples, want %d", got, want)
	}

	// Restart the follower: recovery must land on the same seq, so a
	// resumed stream continues exactly where it left off.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower = openTest(t, fdir, false)
	defer follower.Close()
	if got, want := follower.AppliedSeq(), uint64(9); got != want {
		t.Fatalf("restarted follower applied seq %d, want %d", got, want)
	}
	if got, want := follower.NextSeq(), uint64(10); got != want {
		t.Fatalf("restarted follower next seq %d, want %d", got, want)
	}

	// A gapped batch is refused.
	err := follower.ApplyReplicated(Batch{Seq: 12, Ops: []Op{{Kind: OpInsert, S: "gap", P: "p", O: "o"}}}, false)
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gapped apply = %v, want ErrSeqGap", err)
	}
	// The next contiguous one is accepted.
	if err := follower.ApplyReplicated(Batch{Seq: 10, Ops: []Op{{Kind: OpInsert, S: "next", P: "p", O: "o"}}}, true); err != nil {
		t.Fatalf("contiguous apply: %v", err)
	}
}

// TestManifestLastSeqRoundTrip: lastseq encodes, decodes, and seeds
// recovery; manifests without it stay byte-identical.
func TestManifestLastSeqRoundTrip(t *testing.T) {
	m := &manifest{Version: 3, WALFloor: 7, LastSeq: 41, NextRing: 2, Triples: 5,
		Dict: fileRef{Name: "dict-000003.dict", Bytes: 100}}
	got, err := readManifestBytes(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 41 {
		t.Fatalf("decoded LastSeq = %d, want 41", got.LastSeq)
	}

	m.LastSeq = 0
	enc := m.encode()
	if _, err := readManifestBytes(enc); err != nil {
		t.Fatalf("zero-LastSeq manifest: %v", err)
	}
	for _, line := range []string{"lastseq"} {
		if containsLine(enc, line) {
			t.Fatalf("zero LastSeq still encoded %q", line)
		}
	}
}

func containsLine(data []byte, key string) bool {
	for _, l := range splitLines(string(data)) {
		if len(l) >= len(key) && l[:len(key)] == key {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// TestWaitApplied: a waiter blocks until the store reaches the target
// sequence and wakes promptly when it does.
func TestWaitApplied(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	defer db.Close()

	if _, err := db.InsertBatch([]dict.StringTriple{tr("a", "p", "o")}, true); err != nil {
		t.Fatal(err)
	}
	// Already applied: returns immediately.
	if err := db.WaitApplied(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	werr := make(chan error, 1)
	go func() {
		defer wg.Done()
		werr <- db.WaitApplied(context.Background(), 2)
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := db.InsertBatch([]dict.StringTriple{tr("b", "p", "o")}, true); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-werr; err != nil {
		t.Fatalf("WaitApplied(2): %v", err)
	}

	// Context cancellation unblocks a waiter that can never be satisfied.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := db.WaitApplied(ctx, 1<<40); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitApplied(huge) = %v, want deadline exceeded", err)
	}
}

// TestMutateReturnsSeq: mutations report their committed sequence so
// clients can read-their-writes on a replica.
func TestMutateReturnsSeq(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	defer db.Close()

	_, seq1, err := db.Mutate(OpInsert, []dict.StringTriple{tr("a", "p", "o")}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, seq2, err := db.Mutate(OpDelete, []dict.StringTriple{tr("a", "p", "o")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq1 != 1 || seq2 != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", seq1, seq2)
	}
	st := db.Stats()
	if st.AppliedSeq != 2 || st.DurableSeq != 2 {
		t.Fatalf("stats applied/durable = %d/%d, want 2/2", st.AppliedSeq, st.DurableSeq)
	}
}

// TestInspectDurableSeq: the offline report exposes snapshot and WAL-tail
// sequences for ringstats.
func TestInspectDurableSeq(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, false)
	for i := 0; i < 6; i++ {
		if _, err := db.InsertBatch([]dict.StringTriple{tr(fmt.Sprintf("s%d", i), "p", "o")}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBatch([]dict.StringTriple{tr("tail", "p", "o")}, true); err != nil {
		t.Fatal(err)
	}
	// Inspect the live directory (Close would checkpoint and fold the
	// tail): the snapshot covers 6, the WAL tail carries the 7th.
	defer db.Close()

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotLastSeq != 6 {
		t.Fatalf("SnapshotLastSeq = %d, want 6", rep.SnapshotLastSeq)
	}
	if rep.DurableSeq != 7 {
		t.Fatalf("DurableSeq = %d, want 7", rep.DurableSeq)
	}
}
