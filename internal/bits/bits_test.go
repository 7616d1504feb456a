package bits

import (
	mbits "math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveSelect64(w uint64, k int) int {
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return 64
}

func TestSelect64Exhaustive16(t *testing.T) {
	// Exhaustive over all 16-bit patterns placed at varying shifts.
	for pat := uint64(0); pat < 1<<16; pat += 7 { // stride keeps runtime sane
		for _, shift := range []uint{0, 5, 16, 48} {
			w := pat << shift
			ones := mbits.OnesCount64(w)
			for k := 0; k < ones; k++ {
				got := Select64(w, k)
				want := naiveSelect64(w, k)
				if got != want {
					t.Fatalf("Select64(%#x, %d) = %d, want %d", w, k, got, want)
				}
			}
			if got := Select64(w, ones); got != 64 {
				t.Fatalf("Select64(%#x, %d) = %d, want 64 (out of range)", w, ones, got)
			}
		}
	}
}

func TestSelect64Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		w := rng.Uint64()
		k := rng.Intn(64)
		got, want := Select64(w, k), naiveSelect64(w, k)
		if got != want {
			t.Fatalf("Select64(%#x, %d) = %d, want %d", w, k, got, want)
		}
	}
}

func TestSelect64Edges(t *testing.T) {
	cases := []struct {
		w    uint64
		k    int
		want int
	}{
		{0, 0, 64},
		{1, 0, 0},
		{1 << 63, 0, 63},
		{^uint64(0), 63, 63},
		{^uint64(0), 0, 0},
		{0xF0, 3, 7},
		{5, -1, 64},
	}
	for _, c := range cases {
		if got := Select64(c.w, c.k); got != c.want {
			t.Errorf("Select64(%#x, %d) = %d, want %d", c.w, c.k, got, c.want)
		}
	}
}

func TestReadWriteBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nbits = 4096
	data := make([]uint64, WordsFor(nbits))
	type rec struct {
		pos   uint64
		width uint
		val   uint64
	}
	// Write non-overlapping fields of random widths, then read them back.
	var recs []rec
	pos := uint64(0)
	for pos < nbits-64 {
		width := uint(rng.Intn(64) + 1)
		val := rng.Uint64()
		if width < 64 {
			val &= (1 << width) - 1
		}
		WriteBits(data, pos, width, val)
		recs = append(recs, rec{pos, width, val})
		pos += uint64(width)
	}
	for _, r := range recs {
		if got := ReadBits(data, r.pos, r.width); got != r.val {
			t.Fatalf("ReadBits(pos=%d, width=%d) = %#x, want %#x", r.pos, r.width, got, r.val)
		}
	}
}

func TestWriteBitsOverwrite(t *testing.T) {
	data := make([]uint64, 2)
	WriteBits(data, 60, 8, 0xFF) // straddles the word boundary
	if got := ReadBits(data, 60, 8); got != 0xFF {
		t.Fatalf("straddling write: got %#x, want 0xFF", got)
	}
	WriteBits(data, 60, 8, 0xA5)
	if got := ReadBits(data, 60, 8); got != 0xA5 {
		t.Fatalf("straddling overwrite: got %#x, want 0xA5", got)
	}
	// Neighbours untouched.
	if got := ReadBits(data, 0, 60); got != 0 {
		t.Fatalf("low neighbour corrupted: %#x", got)
	}
	if got := ReadBits(data, 68, 32); got != 0 {
		t.Fatalf("high neighbour corrupted: %#x", got)
	}
}

func TestReadBitsPastEnd(t *testing.T) {
	data := []uint64{^uint64(0)}
	if got := ReadBits(data, 128, 8); got != 0 {
		t.Fatalf("read past end = %#x, want 0", got)
	}
	if got := ReadBits(data, 60, 8); got != 0x0F {
		t.Fatalf("read straddling end = %#x, want 0x0F", got)
	}
}

func TestReadWriteQuick(t *testing.T) {
	f := func(posRaw uint16, widthRaw uint8, val uint64) bool {
		pos := uint64(posRaw % 1000)
		width := uint(widthRaw%64) + 1
		if width < 64 {
			val &= (1 << width) - 1
		}
		data := make([]uint64, WordsFor(2048))
		WriteBits(data, pos, width, val)
		return ReadBits(data, pos, width) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLen(t *testing.T) {
	cases := map[uint64]uint{0: 1, 1: 1, 2: 2, 3: 2, 255: 8, 256: 9}
	for v, want := range cases {
		if got := Len(v); got != want {
			t.Errorf("Len(%d) = %d, want %d", v, got, want)
		}
	}
}
