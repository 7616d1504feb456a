package wcoring

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"unsafe"
)

// alignedCopy returns a copy of data whose base address is 8-byte
// aligned plus skew — skew 0 exercises the zero-copy aliasing path,
// skew 1..7 the misaligned copy fallback.
func alignedCopy(data []byte, skew int) []byte {
	buf := make([]byte, len(data)+16)
	off := (8 - int(uintptr(unsafe.Pointer(&buf[0])))%8) % 8
	off += skew
	copy(buf[off:], data)
	return buf[off : off+len(data)]
}

func paperSolutions(t *testing.T, s *Store) []string {
	t.Helper()
	sols, err := s.Select([]PatternString{
		{S: "?x", P: "win", O: "?y"},
		{S: "?x", P: "nom", O: "?z"},
		{S: "?z", P: "adv", O: "?y"},
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sol := range sols {
		got = append(got, sol["x"]+"/"+sol["y"]+"/"+sol["z"])
	}
	sort.Strings(got)
	return got
}

// TestViewStoreRoundTrip checks the view load path end to end: a viewed
// store must answer queries exactly like the store it was written from,
// for the plain and compressed variants and for both the aliased and the
// misaligned-fallback paths.
func TestViewStoreRoundTrip(t *testing.T) {
	for _, opt := range []Options{{}, {Compress: true}} {
		store := nobelStore(t, opt)
		var buf bytes.Buffer
		if _, err := store.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		want := paperSolutions(t, store)
		for skew := 0; skew < 8; skew++ {
			viewed, err := ViewStore(alignedCopy(buf.Bytes(), skew))
			if err != nil {
				t.Fatalf("ViewStore (compress=%v skew=%d): %v", opt.Compress, skew, err)
			}
			if viewed.Len() != store.Len() {
				t.Fatalf("skew %d: Len = %d, want %d", skew, viewed.Len(), store.Len())
			}
			got := paperSolutions(t, viewed)
			if len(got) != len(want) {
				t.Fatalf("skew %d: %d solutions, want %d", skew, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("skew %d: solution %d = %q, want %q", skew, i, got[i], want[i])
				}
			}
		}
	}
}

// unpadStore rewrites a current-format store image into the legacy
// layout: no pad flag, no padding, ring immediately after the dictionary.
func unpadStore(t *testing.T, data []byte) []byte {
	t.Helper()
	layout, err := ReadStoreLayout(data)
	if err != nil {
		t.Fatal(err)
	}
	if !layout.Padded {
		t.Fatal("test image is already legacy-format")
	}
	legacy := make([]byte, 0, len(data)-layout.PadBytes)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(layout.DictBytes))
	legacy = append(legacy, hdr[:]...)
	legacy = append(legacy, data[8:8+layout.DictBytes]...)
	legacy = append(legacy, data[layout.RingOffset:]...)
	return legacy
}

// TestViewStoreLegacyUnpadded checks that pre-padding files — whose ring
// section is not 8-byte aligned — still load through ReadStore and
// ViewStore, both silently taking the copy fallback for the ring.
func TestViewStoreLegacyUnpadded(t *testing.T) {
	store := nobelStore(t, Options{})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := unpadStore(t, buf.Bytes())
	layout, err := ReadStoreLayout(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Padded {
		t.Fatal("legacy image still carries the pad flag")
	}
	want := paperSolutions(t, store)

	viaRead, err := ReadStore(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("ReadStore(legacy): %v", err)
	}
	viaView, err := ViewStore(alignedCopy(legacy, 0))
	if err != nil {
		t.Fatalf("ViewStore(legacy): %v", err)
	}
	for _, s := range []*Store{viaRead, viaView} {
		got := paperSolutions(t, s)
		if len(got) != len(want) {
			t.Fatalf("legacy store: %d solutions, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("legacy store: solution %d = %q, want %q", i, got[i], want[i])
			}
		}
	}
}

func TestViewStoreTruncationsError(t *testing.T) {
	store := nobelStore(t, Options{})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i++ {
		if _, err := ViewStore(alignedCopy(data[:i], 0)); err == nil {
			t.Errorf("accepted truncation to %d of %d bytes", i, len(data))
		}
	}
}
