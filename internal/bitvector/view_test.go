package bitvector

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/bits"
)

// viewPlain, viewRRR and viewSparse decode one vector from the start of
// b, reporting the bytes consumed, as the index loaders do.
func viewPlain(b []byte) (*Plain, int, error) { return bits.View(b, "bitvector", DecodePlain) }

func viewRRR(b []byte) (*RRR, int, error) { return bits.View(b, "bitvector", DecodeRRR) }

func viewSparse(b []byte) (*Sparse, int, error) { return bits.View(b, "bitvector", DecodeSparse) }

// writeBytes serializes any of the bitvector types through the shared
// io.Writer path.
func writeBytes(t *testing.T, v interface {
	WriteTo(io.Writer) (int64, error)
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

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

func TestViewPlainMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 64, 1000} {
		bs := randomBits(rng, n, 0.4)
		data := writeBytes(t, buildPlain(bs))
		v, consumed, err := viewPlain(alignedCopy(data, 0))
		if err != nil {
			t.Fatalf("viewPlain(n=%d): %v", n, err)
		}
		if consumed != len(data) {
			t.Fatalf("viewPlain(n=%d) consumed %d of %d bytes", n, consumed, len(data))
		}
		checkAgainstNaive(t, v, bs, "view-plain")
	}
}

// TestViewPlainAliases proves the zero-copy contract: on an aligned
// little-endian buffer the Plain's words alias the input bytes.
func TestViewPlainAliases(t *testing.T) {
	bs := randomBits(rand.New(rand.NewSource(42)), 512, 0.5)
	data := alignedCopy(writeBytes(t, buildPlain(bs)), 0)
	v, _, err := viewPlain(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.words) == 0 {
		t.Fatal("no words")
	}
	// The payload starts after the 3-word header.
	if unsafe.Pointer(&v.words[0]) != unsafe.Pointer(&data[24]) {
		t.Error("ViewPlain on an aligned buffer did not alias the input")
	}
}

// TestReadPlainAliasesReadBuffer pins the one-reader load path: a
// stream read whole by bits.ReadAligned and then viewed keeps the words
// in the buffer ReadAligned allocated, so loading from a reader costs one
// copy of the payload (into that buffer), not two.
func TestReadPlainAliasesReadBuffer(t *testing.T) {
	bs := randomBits(rand.New(rand.NewSource(48)), 700, 0.5)
	b, err := bits.ReadAligned(iotest.OneByteReader(bytes.NewReader(writeBytes(t, buildPlain(bs)))))
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := viewPlain(b)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.Pointer(&v.words[0]) != unsafe.Pointer(&b[24]) {
		t.Error("a Plain viewed over ReadAligned's buffer copied its words")
	}
	checkAgainstNaive(t, v, bs, "read-plain")
}

func TestViewPlainMisalignedFallback(t *testing.T) {
	bs := randomBits(rand.New(rand.NewSource(43)), 300, 0.3)
	data := writeBytes(t, buildPlain(bs))
	for skew := 1; skew < 8; skew++ {
		v, consumed, err := viewPlain(alignedCopy(data, skew))
		if err != nil {
			t.Fatalf("skew %d: %v", skew, err)
		}
		if consumed != len(data) {
			t.Fatalf("skew %d: consumed %d of %d", skew, consumed, len(data))
		}
		checkAgainstNaive(t, v, bs, "view-plain-misaligned")
	}
}

func TestViewRRRMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, b := range []int{15, 16, 64} {
		bs := randomBits(rng, 3000, 0.2)
		data := writeBytes(t, buildRRR(bs, b))
		v, consumed, err := viewRRR(alignedCopy(data, 0))
		if err != nil {
			t.Fatalf("viewRRR(b=%d): %v", b, err)
		}
		if consumed != len(data) {
			t.Fatalf("viewRRR(b=%d) consumed %d of %d bytes", b, consumed, len(data))
		}
		checkAgainstNaive(t, v, bs, "view-rrr")
	}
}

func TestViewSparseMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ones, bs := randomSparse(rng, 4000, 0.05)
	data := writeBytes(t, NewSparse(4000, ones))
	v, consumed, err := viewSparse(alignedCopy(data, 0))
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(data) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	for i := range bs {
		if v.Get(i) != bs[i] {
			t.Fatalf("Get(%d) differs between view and build", i)
		}
	}
}

// TestViewTruncationsError feeds every truncated prefix of each
// serialization to its View decoder: all must error, none may panic.
func TestViewTruncationsError(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	bs := randomBits(rng, 700, 0.3)
	ones, _ := randomSparse(rng, 700, 0.1)
	cases := []struct {
		name string
		data []byte
		view func([]byte) (int, error)
	}{
		{"plain", writeBytes(t, buildPlain(bs)), func(b []byte) (int, error) { _, n, err := viewPlain(b); return n, err }},
		{"rrr", writeBytes(t, buildRRR(bs, 16)), func(b []byte) (int, error) { _, n, err := viewRRR(b); return n, err }},
		{"sparse", writeBytes(t, NewSparse(700, ones)), func(b []byte) (int, error) { _, n, err := viewSparse(b); return n, err }},
	}
	for _, tc := range cases {
		for i := 0; i < len(tc.data); i++ {
			if _, err := tc.view(alignedCopy(tc.data[:i], 0)); err == nil {
				t.Errorf("%s: accepted truncation to %d of %d bytes", tc.name, i, len(tc.data))
			}
		}
	}
}

// TestViewBitFlips corrupts each serialization one byte at a time: the
// View decoders must either reject the input or produce a structure
// that answers queries without panicking. (A flip inside the payload
// yields a different but valid bitvector; a flip in a header or
// directory word must be caught by validation.)
func TestViewBitFlips(t *testing.T) {
	if ringdebugEnabled {
		t.Skip("corrupt-but-accepted input returns wrong answers by policy, which legitimately trips ringdebug assertions")
	}
	rng := rand.New(rand.NewSource(47))
	bs := randomBits(rng, 500, 0.4)
	ones, _ := randomSparse(rng, 500, 0.1)
	type probe struct {
		name string
		data []byte
		view func([]byte) error
	}
	exercise := func(v Vector) {
		n := v.Len()
		for i := 0; i <= n; i += 17 {
			v.Rank1(i)
		}
		if ones := v.Rank1(n); ones > 0 {
			v.Select1(1)
			v.Select1(ones)
		}
	}
	cases := []probe{
		{"plain", writeBytes(t, buildPlain(bs)), func(b []byte) error {
			v, _, err := viewPlain(b)
			if err == nil {
				exercise(v)
			}
			return err
		}},
		{"rrr", writeBytes(t, buildRRR(bs, 16)), func(b []byte) error {
			v, _, err := viewRRR(b)
			if err == nil {
				exercise(v)
			}
			return err
		}},
		{"sparse", writeBytes(t, NewSparse(500, ones)), func(b []byte) error {
			v, _, err := viewSparse(b)
			if err == nil {
				exercise(v)
			}
			return err
		}},
	}
	for _, tc := range cases {
		for i := 0; i < len(tc.data); i++ {
			c := alignedCopy(tc.data, 0)
			c[i] ^= 0x5A
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on byte %d flipped: %v", tc.name, i, r)
					}
				}()
				_ = tc.view(c)
			}()
		}
	}
}
