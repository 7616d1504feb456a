//go:build ringdebug

package mman

import (
	"os"
	"path/filepath"
	"testing"
)

func debugRegion(t *testing.T) *Region {
	t.Helper()
	path := filepath.Join(t.TempDir(), "region.bin")
	if err := os.WriteFile(path, []byte("ringdebug region payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDebugBalancedLifetime: the owner's one Release unmaps without
// tripping an assertion, and a second Release errors rather than
// panicking or unmapping twice.
func TestDebugBalancedLifetime(t *testing.T) {
	r := debugRegion(t)
	if got := string(r.Bytes()); got != "ringdebug region payload" {
		t.Fatalf("Bytes = %q before Release", got)
	}
	if err := r.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := r.Release(); err == nil {
		t.Fatal("second Release did not error")
	}
}

// TestDebugUseAfterUnmapPanics: reading a view after the last release
// must panic under ringdebug instead of waiting for an unlucky page
// fault in production.
func TestDebugUseAfterUnmapPanics(t *testing.T) {
	r := debugRegion(t)
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes() after the last Release did not panic under ringdebug")
		}
	}()
	_ = r.Bytes()
}

// TestDebugLenAfterUnmapPanics: Len is a view read too.
func TestDebugLenAfterUnmapPanics(t *testing.T) {
	r := debugRegion(t)
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Len() after the last Release did not panic under ringdebug")
		}
	}()
	_ = r.Len()
}
