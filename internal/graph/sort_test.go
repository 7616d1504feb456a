package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

func compareSPO(a, b Triple) int {
	return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
}

// sortCases covers each branch of SortBy on every component: one counting
// pass (span ≤ 2^16), two 16-bit passes (span above 2^16 but within four
// buckets per triple) and the key sort (span above four buckets per
// triple), with base values at 0 and just below MaxID. Every case but the
// empty one repeats some triples.
var sortCases = []struct {
	name string
	n    int
	base ID
	span uint64
}{
	{"empty", 0, 0, 1},
	{"one", 1, 7, 1},
	{"one-near-max", 1, MaxID, 1},
	{"one-pass", 3000, 0, 1000},
	{"one-pass-full-digit", 40000, 0, 1 << 16},
	{"one-pass-near-max", 3000, MaxID - 999, 1000},
	{"two-pass", 20000, 0, 70000},
	{"two-pass-near-max", 20000, MaxID - 69999, 70000},
	{"key-sort", 300, 0, 1 << 20},
	{"key-sort-full-range", 300, 0, 1 << 32},
}

func randomSortInput(rng *rand.Rand, n int, base ID, span uint64) []Triple {
	draw := func() ID { return base + ID(rng.Int63n(int64(span))) }
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{draw(), draw(), draw()}
	}
	if n > 1 {
		ts[0].S, ts[1].P, ts[n-1].O = base, base+ID(span-1), base+ID(span-1) // hit both ends of the span
	}
	for i := 0; i < n/10; i++ {
		ts[rng.Intn(n)] = ts[rng.Intn(n)] // duplicates
	}
	return ts
}

func TestSortByMatchesStableComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, c := range sortCases {
		for _, pos := range []Position{PosS, PosP, PosO} {
			in := randomSortInput(rng, c.n, c.base, c.span)
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b Triple) int { return cmp.Compare(a.At(pos), b.At(pos)) })
			ts, buf := slices.Clone(in), make([]Triple, len(in))
			sorted, spare := SortBy(ts, buf, pos)
			if !slices.Equal(sorted, want) {
				t.Fatalf("%s by %v: SortBy differs from a stable comparison sort", c.name, pos)
			}
			if c.n > 0 && (len(spare) != c.n || &spare[0] == &sorted[0] ||
				!(&sorted[0] == &ts[0] && &spare[0] == &buf[0] || &sorted[0] == &buf[0] && &spare[0] == &ts[0])) {
				t.Fatalf("%s by %v: sorted and spare are not the two slices passed in", c.name, pos)
			}
		}
	}
}

func TestSortedSPOMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, c := range sortCases {
		in := randomSortInput(rng, c.n, c.base, c.span)
		orig := slices.Clone(in)
		want := slices.Clone(in)
		slices.SortFunc(want, compareSPO)
		want = slices.Compact(want)
		got := SortedSPO(in)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: SortedSPO differs from a comparison sort with duplicates dropped", c.name)
		}
		if !slices.Equal(in, orig) {
			t.Fatalf("%s: SortedSPO modified its input", c.name)
		}
		// Sorted, duplicate-free input takes the copy-only path.
		again := SortedSPO(got)
		if !slices.Equal(again, want) || (len(got) > 0 && &again[0] == &got[0]) {
			t.Fatalf("%s: SortedSPO of sorted input is not an equal copy", c.name)
		}
		if g := New(in); !slices.Equal(g.Triples(), want) {
			t.Fatalf("%s: New does not hold the sorted distinct triples", c.name)
		}
	}
}
