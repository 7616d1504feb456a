package intvec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(1); width <= 64; width++ {
		n := 200
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
			if width < 64 {
				vals[i] &= (1 << width) - 1
			}
		}
		v := NewWidth(vals, width)
		if v.Len() != n || v.Width() != width {
			t.Fatalf("width %d: Len/Width mismatch", width)
		}
		for i, want := range vals {
			if got := v.Get(i); got != want {
				t.Fatalf("width %d: Get(%d) = %d, want %d", width, i, got, want)
			}
		}
	}
}

func TestNewPicksMinimalWidth(t *testing.T) {
	v := New([]uint64{0, 1, 2, 3, 4, 5, 6, 7})
	if v.Width() != 3 {
		t.Errorf("width = %d, want 3", v.Width())
	}
	v = New([]uint64{0, 0, 0})
	if v.Width() != 1 {
		t.Errorf("all-zero width = %d, want 1", v.Width())
	}
}

func TestSearchPrefix(t *testing.T) {
	v := New([]uint64{0, 0, 3, 3, 7, 10, 10, 10, 15})
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 5}, {10, 5}, {11, 8}, {15, 8}, {16, 9},
	}
	for _, c := range cases {
		if got := v.SearchPrefix(c.x); got != c.want {
			t.Errorf("SearchPrefix(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint64, 777)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 20))
	}
	v := New(vals)
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := View(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got.Get(i) != want {
			t.Fatalf("after round-trip, Get(%d) = %d, want %d", i, got.Get(i), want)
		}
	}
}

func TestSerializationCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New([]uint64{1, 2, 3}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := View(data[:10]); err == nil {
		t.Error("accepted truncated header")
	}
	bad := append([]byte(nil), data...)
	bad[3] ^= 0x55
	if _, _, err := View(bad); err == nil {
		t.Error("accepted bad magic")
	}
	short := data[:len(data)-4]
	if _, _, err := View(short); err == nil {
		t.Error("accepted truncated data")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		v := New(vals)
		for i, want := range vals {
			if v.Get(i) != want {
				return false
			}
		}
		return v.Len() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	t.Run("width0", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for width 0")
			}
		}()
		NewWidth(nil, 0)
	})
	t.Run("valueTooWide", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for oversized value")
			}
		}()
		NewWidth([]uint64{8}, 3)
	})
	t.Run("getOutOfRange", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for Get out of range")
			}
		}()
		New([]uint64{1}).Get(1)
	})
}
