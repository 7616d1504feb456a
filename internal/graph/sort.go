package graph

import "slices"

// Sorting triples by their integer components.
//
// A stable sort on one component x of an array sorted by (y, z) leaves it
// sorted by (x, y, z). So an SPO order is three stable single-component
// passes (by O, then P, then S), and each cyclic rotation follows from the
// one before it with one pass: SPO stably sorted by O is OSP, and OSP
// stably sorted by P is POS. Each pass is a counting sort in 16-bit digits
// of the component's offset from its smallest value, so sorting costs a
// few linear passes and no comparisons.

// SortBy stably sorts ts by the component at pos. buf must be as long as
// ts and share no memory with it; it is scratch space. The sorted triples
// land in one of the two slices, which is returned as sorted; the other
// is returned as spare, free for the caller's next pass.
//
// Values spanning at most 2^16 cost one counting pass (into buf), up to
// 2^32 two (into buf, then back into ts). When the span exceeds four
// buckets per triple, clearing and summing the buckets would cost more
// than sorting, so it sorts (value, input position) keys instead, which
// takes one more array of len(ts) words.
func SortBy(ts, buf []Triple, pos Position) (sorted, spare []Triple) {
	if len(ts) == 0 {
		return ts, buf
	}
	lo, hi := ts[0].At(pos), ts[0].At(pos)
	for _, t := range ts[1:] {
		v := t.At(pos)
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi-lo) + 1
	switch {
	case span > 4*uint64(len(ts)):
		keys := make([]uint64, len(ts))
		for i, t := range ts {
			keys[i] = uint64(t.At(pos))<<32 | uint64(i)
		}
		slices.Sort(keys)
		for j, k := range keys {
			buf[j] = ts[uint32(k)]
		}
	case span <= 1<<16:
		countingPass(buf, ts, pos, lo, 0, int(span))
	default:
		countingPass(buf, ts, pos, lo, 0, 1<<16)
		countingPass(ts, buf, pos, lo, 16, int(span>>16)+1)
		return ts, buf
	}
	return buf, ts
}

// countingPass stably scatters src into dst by the 16-bit digit
// ((component - lo) >> shift) & 0xffff, which takes values below buckets.
func countingPass(dst, src []Triple, pos Position, lo ID, shift uint, buckets int) {
	at := make([]int, buckets)
	for _, t := range src {
		at[((t.At(pos)-lo)>>shift)&0xffff]++
	}
	sum := 0
	for d, c := range at {
		at[d] = sum
		sum += c
	}
	for _, t := range src {
		d := ((t.At(pos) - lo) >> shift) & 0xffff
		dst[at[d]] = t
		at[d]++
	}
}

// SortedSPO returns a copy of ts sorted by (subject, predicate, object)
// with duplicates dropped. Input that one scan shows to be sorted and
// duplicate-free already (a memtable's or an index's SPO order) is only
// copied. Otherwise the sort needs the copy plus one more array.
func SortedSPO(ts []Triple) []Triple {
	out := slices.Clone(ts)
	if isStrictSPO(ts) {
		return out
	}
	buf := make([]Triple, len(out))
	for _, pos := range [...]Position{PosO, PosP, PosS} {
		out, buf = SortBy(out, buf, pos)
	}
	return slices.Compact(out)
}

// isStrictSPO reports whether ts is strictly increasing in (s,p,o) order.
func isStrictSPO(ts []Triple) bool {
	for i := 1; i < len(ts); i++ {
		if !lessSPO(ts[i-1], ts[i]) {
			return false
		}
	}
	return true
}

func lessSPO(a, b Triple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}
