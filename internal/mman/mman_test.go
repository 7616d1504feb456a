package mman

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMapReadsContents(t *testing.T) {
	want := bytes.Repeat([]byte("ring index bytes "), 1000)
	path := writeFile(t, "idx", want)
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if r.Len() != len(want) || !bytes.Equal(r.Bytes(), want) {
		t.Fatalf("mapped %d bytes, mismatch with %d written", r.Len(), len(want))
	}
}

// TestRefcountLifecycle pins the single-owner lifecycle: the first
// Release unmaps, a second one errors instead of unmapping twice.
func TestRefcountLifecycle(t *testing.T) {
	path := writeFile(t, "idx", []byte("0123456789abcdef"))
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(); err == nil {
		t.Error("second Release did not error")
	}
}

func TestEmptyFile(t *testing.T) {
	path := writeFile(t, "empty", nil)
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("empty file mapped to %d bytes", r.Len())
	}
	if r.Mapped() {
		t.Error("empty file reported as a real mapping")
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFile(t *testing.T) {
	if _, err := Map(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("mapping a missing file did not error")
	}
}
