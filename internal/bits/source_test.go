package bits

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"unsafe"
)

// TestReadAligned reads streams of every short length, and a few that
// force the buffer to grow, through readers that split, short-read and
// return data together with EOF: the bytes must come back unchanged in
// an 8-byte-aligned buffer.
func TestReadAligned(t *testing.T) {
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"plain", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	}
	var lengths []int
	for n := 0; n <= 65; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 40000)
	for _, rd := range readers {
		for _, n := range lengths {
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*7 + n)
			}
			got, err := ReadAligned(rd.wrap(bytes.NewReader(want)))
			if err != nil {
				t.Fatalf("%s n=%d: %v", rd.name, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: bytes differ", rd.name, n)
			}
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(got))); p%8 != 0 {
				t.Fatalf("%s n=%d: buffer at %#x is not 8-byte aligned", rd.name, n, p)
			}
			if cap(got) != n {
				t.Fatalf("%s n=%d: cap %d, want %d (appends must not reach the spare words)", rd.name, n, cap(got), n)
			}
		}
	}
}

// TestReadAlignedPropagatesError cuts a stream partway: the reader's
// error, not a truncated buffer, must reach the caller.
func TestReadAlignedPropagatesError(t *testing.T) {
	boom := errors.New("disk on fire")
	r := io.MultiReader(bytes.NewReader(make([]byte, 5000)), iotest.ErrReader(boom))
	got, err := ReadAligned(r)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got != nil {
		t.Fatalf("returned %d bytes alongside the error", len(got))
	}
}

// TestByteSourceWordsAlias pins the zero-copy contract on an aligned
// buffer, and the copy fallback one byte off it.
func TestByteSourceWordsAlias(t *testing.T) {
	b, err := ReadAligned(bytes.NewReader(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewByteSource(b, "test").Words(8)
	if err != nil {
		t.Fatal(err)
	}
	if hostLittleEndian && unsafe.Pointer(&w[0]) != unsafe.Pointer(&b[0]) {
		t.Error("Words on an aligned buffer did not alias it")
	}
	raw := make([]byte, 80)
	off := (9 - int(uintptr(unsafe.Pointer(&raw[0])))%8) % 8
	skewed := raw[off : off+64]
	src := NewByteSource(skewed, "test")
	w, err = src.Words(8)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.Pointer(&w[0]) == unsafe.Pointer(&skewed[0]) {
		t.Error("Words on a misaligned buffer aliased it")
	}
	if _, err := src.U64s(1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("read past the end: err = %v, want ErrUnexpectedEOF", err)
	}
}
