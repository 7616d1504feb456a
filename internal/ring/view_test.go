package ring

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/testutil"
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

// TestViewMatchesRead checks the three ways a serialized ring is loaded —
// View on an aligned buffer (aliased), View on a misaligned one (copy
// fallback), and Read on a stream that arrives one byte at a time — give
// the same ring, for every variant.
func TestViewMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range bothVariants {
		g := testutil.RandomGraph(rng, 250, 25, 4)
		r := New(g, tc.opt)
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", tc.name, err)
		}
		data := buf.Bytes()
		loads := map[string]func() (*Ring, error){
			"read": func() (*Ring, error) { return Read(iotest.OneByteReader(bytes.NewReader(data))) },
		}
		for _, skew := range []int{0, 5} {
			loads[fmt.Sprintf("view-skew%d", skew)] = func() (*Ring, error) {
				got, consumed, err := View(alignedCopy(data, skew))
				if err == nil && consumed != len(data) {
					err = fmt.Errorf("consumed %d of %d bytes", consumed, len(data))
				}
				return got, err
			}
		}
		for name, load := range loads {
			got, err := load()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
			if got.Len() != r.Len() || got.NumSO() != r.NumSO() || got.NumP() != r.NumP() {
				t.Fatalf("%s %s: header mismatch", tc.name, name)
			}
			want := g.Triples()
			for i := range want {
				if got.Triple(i) != want[i] {
					t.Fatalf("%s %s: Triple(%d) mismatch", tc.name, name, i)
				}
			}
			for _, tp := range []graph.TriplePattern{
				{S: graph.Var("x"), P: graph.Const(1), O: graph.Var("y")},
				{S: graph.Const(3), P: graph.Var("p"), O: graph.Var("o")},
			} {
				if c, w := got.NewPatternState(tp).Count(), r.NewPatternState(tp).Count(); c != w {
					t.Fatalf("%s %s: Count(%v) = %d, want %d", tc.name, name, tp, c, w)
				}
			}
		}
	}
}

func TestViewTruncationsError(t *testing.T) {
	r := New(testutil.PaperGraph(), Options{})
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i++ {
		if _, _, err := View(alignedCopy(data[:i], 0)); err == nil {
			t.Errorf("accepted truncation to %d of %d bytes", i, len(data))
		}
	}
}

// TestViewBitFlips corrupts each serialization one byte at a time: View
// must either reject the input or reconstruct triples without
// panicking. (A payload flip yields a different but answerable index.)
func TestViewBitFlips(t *testing.T) {
	if ringdebugEnabled {
		t.Skip("corrupt-but-accepted input returns wrong answers by policy, which legitimately trips ringdebug assertions")
	}
	rng := rand.New(rand.NewSource(72))
	for _, tc := range bothVariants {
		g := testutil.RandomGraph(rng, 40, 10, 3)
		r := New(g, tc.opt)
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for i := 0; i < len(data); i++ {
			c := alignedCopy(data, 0)
			c[i] ^= 0x5A
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("%s: panic on byte %d flipped: %v", tc.name, i, rec)
					}
				}()
				v, _, err := View(c)
				if err != nil {
					return
				}
				n := v.Len()
				if n > 100000 {
					n = 100000
				}
				for j := 0; j < n; j++ {
					v.Triple(j)
				}
			}()
		}
	}
}
