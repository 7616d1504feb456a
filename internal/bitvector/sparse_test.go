package bitvector

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomSparse(rng *rand.Rand, m int, density float64) ([]int, []bool) {
	set := map[int]bool{}
	for i := 0; i < m; i++ {
		if rng.Float64() < density {
			set[i] = true
		}
	}
	ones := make([]int, 0, len(set))
	bs := make([]bool, m)
	for p := range set {
		ones = append(ones, p)
		bs[p] = true
	}
	sort.Ints(ones)
	return ones, bs
}

func TestSparseAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, m := range []int{1, 10, 100, 5000} {
		for _, density := range []float64{0, 0.001, 0.02, 0.3, 1} {
			ones, bs := randomSparse(rng, m, density)
			s := NewSparse(m, ones)
			ref := &naive{bits: bs}
			if s.Ones() != ref.Ones() || s.Len() != m {
				t.Fatalf("m=%d d=%.3f: Ones/Len mismatch", m, density)
			}
			for i := 0; i <= m; i++ {
				if got, want := s.Rank1(i), ref.Rank1(i); got != want {
					t.Fatalf("m=%d d=%.3f: Rank1(%d) = %d, want %d", m, density, i, got, want)
				}
			}
			for i := 0; i < m; i++ {
				if got, want := s.Get(i), bs[i]; got != want {
					t.Fatalf("m=%d d=%.3f: Get(%d) = %v, want %v", m, density, i, got, want)
				}
			}
			for k := 1; k <= s.Ones(); k++ {
				if got, want := s.Select1(k), ref.Select1(k); got != want {
					t.Fatalf("m=%d d=%.3f: Select1(%d) = %d, want %d", m, density, k, got, want)
				}
			}
			zeros := m - s.Ones()
			for k := 1; k <= zeros; k += 1 + zeros/50 {
				if got, want := s.Select0(k), ref.Select0(k); got != want {
					t.Fatalf("m=%d d=%.3f: Select0(%d) = %d, want %d", m, density, k, got, want)
				}
			}
			if s.Select1(0) != -1 || s.Select1(s.Ones()+1) != -1 {
				t.Fatal("Select1 out-of-range not -1")
			}
			if s.Select0(0) != -1 || s.Select0(zeros+1) != -1 {
				t.Fatal("Select0 out-of-range not -1")
			}
		}
	}
}

func TestSparseVerySparseCompresses(t *testing.T) {
	// 100 ones in a 10M universe must use a tiny fraction of plain space.
	m := 10_000_000
	ones := make([]int, 100)
	for i := range ones {
		ones[i] = i * 99991
	}
	s := NewSparse(m, ones)
	if s.SizeBytes() > 4096 {
		t.Errorf("Elias-Fano of 100 ones in 10M positions uses %d bytes", s.SizeBytes())
	}
	// Spot-check correctness at this scale.
	for k := 1; k <= 100; k++ {
		if got := s.Select1(k); got != (k-1)*99991 {
			t.Fatalf("Select1(%d) = %d", k, got)
		}
	}
	if got := s.Rank1(99991*50 + 1); got != 51 {
		t.Fatalf("Rank1 = %d, want 51", got)
	}
}

func TestSparseQuickRankSelectInverse(t *testing.T) {
	f := func(seed int64, mRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mRaw%3000) + 1
		ones, _ := randomSparse(rng, m, 0.1)
		s := NewSparse(m, ones)
		for k := 1; k <= s.Ones(); k++ {
			p := s.Select1(k)
			if p < 0 || !s.Get(p) || s.Rank1(p) != k-1 || s.Rank1(p+1) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	ones, bs := randomSparse(rng, 4000, 0.05)
	s := NewSparse(4000, ones)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := viewSparse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range bs {
		if got.Get(i) != bs[i] {
			t.Fatalf("Get(%d) differs after round-trip", i)
		}
	}
	// Corruption.
	buf.Reset()
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := viewSparse(data[:len(data)/2]); err == nil {
		t.Error("accepted truncated Sparse")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if _, _, err := viewSparse(bad); err == nil {
		t.Error("accepted bad magic")
	}
}

func TestSparsePanics(t *testing.T) {
	t.Run("unsorted", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for unsorted positions")
			}
		}()
		NewSparse(10, []int{5, 3})
	})
	t.Run("outOfUniverse", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for out-of-universe position")
			}
		}()
		NewSparse(10, []int{3, 10})
	})
	t.Run("duplicate", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for duplicate positions")
			}
		}()
		NewSparse(10, []int{3, 3})
	})
}

func TestSparseEmpty(t *testing.T) {
	s := NewSparse(100, nil)
	if s.Ones() != 0 || s.Rank1(50) != 0 || s.Select1(1) != -1 {
		t.Error("empty sparse misbehaves")
	}
	if s.Select0(10) != 9 {
		t.Errorf("Select0(10) = %d, want 9", s.Select0(10))
	}
}
