package wavelet

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitvector"
)

func randomSeq(rng *rand.Rand, n int, sigma uint64) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(rng.Int63n(int64(sigma)))
	}
	return s
}

func naiveRank(s []uint64, c uint64, i int) int {
	cnt := 0
	for j := 0; j < i && j < len(s); j++ {
		if s[j] == c {
			cnt++
		}
	}
	return cnt
}

func naiveSelect(s []uint64, c uint64, k int) int {
	for i, v := range s {
		if v == c {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func naiveRangeNext(s []uint64, lo, hi int, c uint64) (uint64, bool) {
	best, found := uint64(0), false
	for i := lo; i < hi && i < len(s); i++ {
		if s[i] >= c && (!found || s[i] < best) {
			best, found = s[i], true
		}
	}
	return best, found
}

var allOpts = []struct {
	name string
	opt  Options
}{
	{"plain", Options{}},
	{"rrr16", Options{Compress: true, RRRBlock: 16}},
	{"rrr64", Options{Compress: true, RRRBlock: 64}},
}

func TestAccessRankSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range allOpts {
		t.Run(tc.name, func(t *testing.T) {
			for _, sigma := range []uint64{1, 2, 3, 7, 8, 100, 1000} {
				n := 500
				s := randomSeq(rng, n, sigma)
				m := New(s, sigma, tc.opt)
				for i := 0; i < n; i++ {
					if got := m.Access(i); got != s[i] {
						t.Fatalf("σ=%d: Access(%d) = %d, want %d", sigma, i, got, s[i])
					}
				}
				for trial := 0; trial < 300; trial++ {
					c := uint64(rng.Int63n(int64(sigma)))
					i := rng.Intn(n + 1)
					if got, want := m.Rank(c, i), naiveRank(s, c, i); got != want {
						t.Fatalf("σ=%d: Rank(%d,%d) = %d, want %d", sigma, c, i, got, want)
					}
				}
				for trial := 0; trial < 100; trial++ {
					c := uint64(rng.Int63n(int64(sigma)))
					total := naiveRank(s, c, n)
					if total == 0 {
						if got := m.Select(c, 1); got != -1 {
							t.Fatalf("σ=%d: Select(%d,1) = %d for absent symbol, want -1", sigma, c, got)
						}
						continue
					}
					k := 1 + rng.Intn(total)
					if got, want := m.Select(c, k), naiveSelect(s, c, k); got != want {
						t.Fatalf("σ=%d: Select(%d,%d) = %d, want %d", sigma, c, k, got, want)
					}
					if got := m.Select(c, total+1); got != -1 {
						t.Fatalf("σ=%d: Select(%d,%d) past end = %d, want -1", sigma, c, total+1, got)
					}
				}
			}
		})
	}
}

func TestRangeNextValue(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range allOpts {
		t.Run(tc.name, func(t *testing.T) {
			for _, sigma := range []uint64{2, 5, 64, 300} {
				n := 400
				s := randomSeq(rng, n, sigma)
				m := New(s, sigma, tc.opt)
				for trial := 0; trial < 500; trial++ {
					lo := rng.Intn(n + 1)
					hi := lo + rng.Intn(n+1-lo)
					c := uint64(rng.Int63n(int64(sigma)))
					got, ok := m.RangeNextValue(lo, hi, c)
					want, wok := naiveRangeNext(s, lo, hi, c)
					if ok != wok || (ok && got != want) {
						t.Fatalf("σ=%d: RangeNextValue(%d,%d,%d) = (%d,%v), want (%d,%v)",
							sigma, lo, hi, c, got, ok, want, wok)
					}
				}
			}
		})
	}
}

func TestRangeNextValueEdges(t *testing.T) {
	s := []uint64{5, 1, 9, 1, 5}
	m := New(s, 10, Options{})
	if _, ok := m.RangeNextValue(0, 0, 0); ok {
		t.Error("empty range reported a value")
	}
	if _, ok := m.RangeNextValue(3, 2, 0); ok {
		t.Error("inverted range reported a value")
	}
	if v, ok := m.RangeNextValue(0, 5, 6); !ok || v != 9 {
		t.Errorf("RangeNextValue(0,5,6) = (%d,%v), want (9,true)", v, ok)
	}
	if _, ok := m.RangeNextValue(0, 5, 10); ok {
		t.Error("c beyond alphabet reported a value")
	}
	// Clamping of out-of-bound ranges.
	if v, ok := m.RangeNextValue(-3, 99, 9); !ok || v != 9 {
		t.Errorf("clamped RangeNextValue = (%d,%v), want (9,true)", v, ok)
	}
}

func TestDistinctInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range allOpts {
		s := randomSeq(rng, 300, 40)
		m := New(s, 40, tc.opt)
		for trial := 0; trial < 100; trial++ {
			lo := rng.Intn(len(s) + 1)
			hi := lo + rng.Intn(len(s)+1-lo)
			want := map[uint64]int{}
			for i := lo; i < hi; i++ {
				want[s[i]]++
			}
			var gotSyms []uint64
			got := map[uint64]int{}
			m.DistinctInRange(lo, hi, func(c uint64, cnt int) bool {
				gotSyms = append(gotSyms, c)
				got[c] = cnt
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("%s: distinct count = %d, want %d", tc.name, len(got), len(want))
			}
			for c, cnt := range want {
				if got[c] != cnt {
					t.Fatalf("%s: symbol %d count = %d, want %d", tc.name, c, got[c], cnt)
				}
			}
			if !sort.SliceIsSorted(gotSyms, func(i, j int) bool { return gotSyms[i] < gotSyms[j] }) {
				t.Fatalf("%s: symbols not emitted in sorted order: %v", tc.name, gotSyms)
			}
		}
	}
}

func TestDistinctInRangeEarlyStop(t *testing.T) {
	s := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	m := New(s, 10, Options{})
	calls := 0
	m.DistinctInRange(0, len(s), func(c uint64, cnt int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop made %d calls, want 3", calls)
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	s := []uint64{0, 0, 0, 0}
	m := New(s, 1, Options{})
	if m.Access(2) != 0 || m.Rank(0, 4) != 4 || m.Select(0, 3) != 2 {
		t.Error("σ=1 operations incorrect")
	}
	v, ok := m.RangeNextValue(1, 3, 0)
	if !ok || v != 0 {
		t.Errorf("σ=1 RangeNextValue = (%d,%v)", v, ok)
	}
}

func TestEmptySequence(t *testing.T) {
	m := New[uint64](nil, 10, Options{})
	if m.Len() != 0 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.Rank(3, 0) != 0 || m.Select(3, 1) != -1 {
		t.Error("empty sequence rank/select incorrect")
	}
	if _, ok := m.RangeNextValue(0, 0, 0); ok {
		t.Error("empty sequence reported a value")
	}
}

func TestQuickAccessIsInput(t *testing.T) {
	f := func(raw []uint16, sigmaRaw uint16) bool {
		sigma := uint64(sigmaRaw%500) + 1
		s := make([]uint64, len(raw))
		for i, v := range raw {
			s[i] = uint64(v) % sigma
		}
		for _, tc := range allOpts {
			m := New(s, sigma, tc.opt)
			for i := range s {
				if m.Access(i) != s[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRankSelectInverse(t *testing.T) {
	f := func(raw []uint8, sigmaRaw uint8) bool {
		sigma := uint64(sigmaRaw%60) + 1
		s := make([]uint64, len(raw))
		for i, v := range raw {
			s[i] = uint64(v) % sigma
		}
		m := New(s, sigma, Options{})
		for c := uint64(0); c < sigma; c++ {
			total := m.Rank(c, len(s))
			for k := 1; k <= total; k++ {
				p := m.Select(c, k)
				if p < 0 || m.Access(p) != c || m.Rank(c, p) != k-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, tc := range allOpts {
		s := randomSeq(rng, 700, 123)
		m := New(s, 123, tc.opt)
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", tc.name, err)
		}
		got, _, err := View(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: View: %v", tc.name, err)
		}
		if got.Len() != m.Len() || got.sigma != m.sigma {
			t.Fatalf("%s: header mismatch after round-trip", tc.name)
		}
		for i := range s {
			if got.Access(i) != s[i] {
				t.Fatalf("%s: Access(%d) mismatch after round-trip", tc.name, i)
			}
		}
	}
}

func TestSerializationCorrupt(t *testing.T) {
	s := randomSeq(rand.New(rand.NewSource(25)), 100, 10)
	m := New(s, 10, Options{})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := View(data[:len(data)/3]); err == nil {
		t.Error("accepted truncated stream")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if _, _, err := View(bad); err == nil {
		t.Error("accepted bad magic")
	}
}

func TestCompressedSmallerOnSkewed(t *testing.T) {
	// Highly repetitive sequence: RRR levels should beat plain levels.
	n := 1 << 15
	s := make([]uint64, n)
	for i := range s {
		if i%97 == 0 {
			s[i] = uint64(i % 13)
		}
	}
	plain := New(s, 16, Options{})
	comp := New(s, 16, Options{Compress: true, RRRBlock: 64})
	if comp.SizeBytes() >= plain.SizeBytes() {
		t.Errorf("compressed %d bytes >= plain %d bytes on skewed data",
			comp.SizeBytes(), plain.SizeBytes())
	}
}

func TestValueOutOfAlphabetPanics(t *testing.T) {
	for _, c := range []struct {
		vals  []uint64
		sigma uint64
	}{
		{[]uint64{5}, 5},
		{[]uint64{0, 1, 2, 9, 3}, 8},
		{[]uint64{1}, 1},
		{[]uint64{0, 1 << 40}, 1 << 33},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v over alphabet [0,%d)", c.vals, c.sigma)
				}
			}()
			New(c.vals, c.sigma, Options{})
		}()
	}
}

func TestRank2MatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, tc := range allOpts {
		s := randomSeq(rng, 600, 77)
		m := New(s, 77, tc.opt)
		for trial := 0; trial < 400; trial++ {
			c := uint64(rng.Int63n(77))
			i := rng.Intn(len(s) + 1)
			j := i + rng.Intn(len(s)+1-i)
			ri, rj := m.Rank2(c, i, j)
			if ri != m.Rank(c, i) || rj != m.Rank(c, j) {
				t.Fatalf("%s: Rank2(%d,%d,%d) = (%d,%d), want (%d,%d)",
					tc.name, c, i, j, ri, rj, m.Rank(c, i), m.Rank(c, j))
			}
		}
		// Clamping and out-of-alphabet behaviour.
		if a, b := m.Rank2(200, 0, 10); a != 0 || b != 0 {
			t.Fatalf("%s: out-of-alphabet Rank2 = (%d,%d)", tc.name, a, b)
		}
		if a, b := m.Rank2(1, -5, len(s)+100); a != 0 || b != m.Rank(1, len(s)) {
			t.Fatalf("%s: clamped Rank2 = (%d,%d)", tc.name, a, b)
		}
	}
}

// naiveNew is the per-bit reference builder: every level sets its bits
// one at a time and partitions the values with a branch per value.
func naiveNew(values []uint64, sigma uint64, opt Options) *Matrix {
	sigma = max(sigma, 1)
	width := uint(1)
	if sigma > 1 {
		width = lenBits(sigma - 1)
	}
	if opt.Compress && opt.RRRBlock == 0 {
		opt.RRRBlock = 16
	}
	m := &Matrix{zeros: make([]int, width), n: len(values), sigma: sigma, width: width}
	levels := make([]bitvector.Vector, width)
	cur := append([]uint64(nil), values...)
	for l := uint(0); l < width; l++ {
		shift := width - 1 - l
		b := bitvector.NewBuilder(len(cur))
		var zeros, ones []uint64
		for i, v := range cur {
			if (v>>shift)&1 == 1 {
				b.Set(i)
				ones = append(ones, v)
			} else {
				zeros = append(zeros, v)
			}
		}
		m.zeros[l] = len(zeros)
		if opt.Compress {
			levels[l] = b.BuildRRR(opt.RRRBlock)
		} else {
			levels[l] = b.BuildPlain()
		}
		cur = append(zeros, ones...)
	}
	m.setLevels(levels)
	return m
}

// TestNewMatchesNaiveBuilder checks the word-at-a-time builder byte for
// byte against the per-bit one, at lengths around a word boundary and
// alphabets at and just past powers of two.
func TestNewMatchesNaiveBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, sigma := range []uint64{1, 2, 3, 4, 5, 16, 17, 1 << 10, 1<<10 + 1, 1 << 33, 1<<33 + 1} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000 + rng.Intn(5000)} {
			vals := randomSeq(rng, n, sigma)
			if n > 1 {
				vals[0], vals[n-1] = 0, sigma-1
			}
			for _, tc := range allOpts {
				var got, want bytes.Buffer
				if _, err := New(vals, sigma, tc.opt).WriteTo(&got); err != nil {
					t.Fatal(err)
				}
				if _, err := naiveNew(vals, sigma, tc.opt).WriteTo(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s σ=%d n=%d: New differs from the per-bit builder", tc.name, sigma, n)
				}
				if dec := New(vals, sigma, tc.opt).Values(); len(dec) != n || (n > 0 && !slices.Equal(dec, vals)) {
					t.Fatalf("%s σ=%d n=%d: Values does not return the input", tc.name, sigma, n)
				}
				if sigma > 1<<32 {
					continue
				}
				narrow := make([]uint32, n)
				for i, v := range vals {
					narrow[i] = uint32(v)
				}
				got.Reset()
				if _, err := New(narrow, sigma, tc.opt).WriteTo(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s σ=%d n=%d: New over uint32 values differs from the per-bit builder", tc.name, sigma, n)
				}
			}
		}
	}
}
