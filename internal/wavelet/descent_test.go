package wavelet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// naiveCounts returns the distinct symbols of s[lo, hi) in increasing
// order with their multiplicities.
func naiveCounts(s []uint64, lo, hi int) (vals []uint64, counts []int) {
	byVal := map[uint64]int{}
	for _, v := range s[lo:hi] {
		byVal[v]++
	}
	for v := range byVal {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	for _, v := range vals {
		counts = append(counts, byVal[v])
	}
	return vals, counts
}

// descentRanges returns every range of size 0, 1 and 2 of [0, n), the
// ranges ending at n that start in its last two words, and a few more
// ranges ending at n and random wide ones.
func descentRanges(rng *rand.Rand, n int) [][2]int {
	var rs [][2]int
	for size := 0; size <= 2; size++ {
		for lo := 0; lo+size <= n; lo++ {
			rs = append(rs, [2]int{lo, lo + size})
		}
	}
	for lo := max(0, n-128); lo < n-2; lo++ {
		rs = append(rs, [2]int{lo, n})
	}
	for i := 0; i < 20; i++ {
		lo := rng.Intn(n + 1)
		rs = append(rs, [2]int{lo, n}, [2]int{lo, lo + rng.Intn(n-lo+1)})
	}
	return rs
}

// rangeWithVals is a range of one matrix with its distinct symbols.
type rangeWithVals struct {
	r    MatrixRange
	vals []uint64
}

// rangePool draws ranges of m, tiny and wide, with their naive distinct
// symbols, to join with the range under test.
func rangePool(rng *rand.Rand, s []uint64, m *Matrix) []rangeWithVals {
	pool := make([]rangeWithVals, 16)
	for i := range pool {
		lo := rng.Intn(len(s) + 1)
		hi := lo + rng.Intn(len(s)-lo+1)
		if i%2 == 0 { // one or two positions: the tail starts from the other range
			hi = min(lo+1+i%4/2, len(s))
		}
		vals, _ := naiveCounts(s, lo, hi)
		pool[i] = rangeWithVals{MatrixRange{m, lo, hi}, vals}
	}
	return pool
}

// TestDescentsMatchNaive checks every multi-position descent against a
// scan of the sequence, on lengths around word and superblock boundaries
// and alphabets at and just past powers of two, for plain and compressed
// levels: IntersectRanges (k = 1..4, over one matrix and across two),
// DistinctInRange with counts, NextValues, RangeNextValue and Rank2, on
// every range of size 0, 1 and 2, ranges ending at n and random wide
// ones. Ranges of one position take the single-position tail; ranges
// ending at n take the pair step at the vector's end.
func TestDescentsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ns := []int{1, 63, 64, 65, 128, 511, 512, 513, 100 + rng.Intn(900)}
	for _, opt := range allOpts[:2] {
		for _, n := range ns {
			for _, sigma := range []uint64{1, 2, 3, 16, 17, 1024, 1025} {
				s := randomSeq(rng, n, sigma)
				m := New(s, sigma, opt.opt)
				// A second matrix of the same width for cross-matrix ranges.
				s2 := randomSeq(rng, 1+rng.Intn(2*n), sigma)
				same := rangePool(rng, s, m)
				cross := append(rangePool(rng, s2, New(s2, sigma, opt.opt)), same...)
				name := fmt.Sprintf("%s n=%d σ=%d", opt.name, n, sigma)
				for _, r := range descentRanges(rng, n) {
					checkDescents(t, name, rng, s, m, r[0], r[1], same, cross)
				}
			}
		}
	}
}

func checkDescents(t *testing.T, name string, rng *rand.Rand, s []uint64, m *Matrix, lo, hi int, same, cross []rangeWithVals) {
	t.Helper()
	vals, counts := naiveCounts(s, lo, hi)

	var gotV []uint64
	var gotC []int
	m.DistinctInRange(lo, hi, func(v uint64, c int) bool {
		gotV, gotC = append(gotV, v), append(gotC, c)
		return true
	})
	if !slices.Equal(gotV, vals) || !slices.Equal(gotC, counts) {
		t.Fatalf("%s: DistinctInRange(%d, %d) = %v %v, want %v %v", name, lo, hi, gotV, gotC, vals, counts)
	}

	sigma := m.sigma
	var at uint64
	if lo < hi {
		at = s[lo]
	}
	for _, c := range []uint64{0, at, at + 1, uint64(rng.Int63n(int64(sigma) + 1))} {
		want, wantOK := naiveRangeNext(s, lo, hi, c)
		if got, ok := m.RangeNextValue(lo, hi, c); got != want || ok != wantOK {
			t.Fatalf("%s: RangeNextValue(%d, %d, %d) = %d %v, want %d %v", name, lo, hi, c, got, ok, want, wantOK)
		}
		limit := 1 + rng.Intn(4)
		if got, want := m.NextValues(lo, hi, c, make([]uint64, 0, limit)), naiveNextValues(s, lo, hi, c, limit); !slices.Equal(got, want) {
			t.Fatalf("%s: NextValues(%d, %d, %d) cap %d = %v, want %v", name, lo, hi, c, limit, got, want)
		}
		if c < sigma {
			ri, rj := m.Rank2(c, lo, hi)
			if wi, wj := naiveRank(s, c, lo), naiveRank(s, c, hi); ri != wi || rj != wj {
				t.Fatalf("%s: Rank2(%d, %d, %d) = (%d, %d), want (%d, %d)", name, c, lo, hi, ri, rj, wi, wj)
			}
		}
	}

	// IntersectRanges of this range and up to three more from a pool,
	// over the same matrix or across two, in a random order.
	for _, pool := range [][]rangeWithVals{same, cross} {
		rs := []MatrixRange{{m, lo, hi}}
		want := vals
		for k := 1 + rng.Intn(4); len(rs) < k; {
			o := pool[rng.Intn(len(pool))]
			rs = append(rs, o.r)
			want = intersectSorted(want, o.vals)
		}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		var got []uint64
		IntersectRanges(rs, func(v uint64) bool {
			got = append(got, v)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: IntersectRanges(%v) = %v, want %v", name, rangesOf(rs), got, want)
		}
	}
}

func intersectSorted(a, b []uint64) []uint64 {
	var out []uint64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

func rangesOf(rs []MatrixRange) [][3]int {
	out := make([][3]int, len(rs))
	for i, r := range rs {
		out[i] = [3]int{r.M.Len(), r.Lo, r.Hi}
	}
	return out
}
