package wavelet

import (
	"math/rand"
	"sync"
	"testing"
)

// Sequence-level substrate benchmarks. One shared matrix pair (plain and
// RRR-compressed levels) over a Zipf-ish sequence that resembles a BWT
// column: a few very frequent symbols plus a long tail.

const (
	benchN     = 1 << 19
	benchSigma = 1 << 14
)

var (
	sinkInt  int
	sinkU64  uint64
	sinkBool bool
)

type benchMats struct {
	seq   []uint64
	plain *Matrix
	rrr16 *Matrix
}

var (
	benchOnce sync.Once
	benchEnv  *benchMats
)

func loadBenchMats() *benchMats {
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(51))
		zipf := rand.NewZipf(rng, 1.3, 8, benchSigma-1)
		seq := make([]uint64, benchN)
		for i := range seq {
			seq[i] = zipf.Uint64()
		}
		benchEnv = &benchMats{
			seq:   seq,
			plain: New(seq, benchSigma, Options{}),
			rrr16: New(seq, benchSigma, Options{Compress: true, RRRBlock: 16}),
		}
	})
	return benchEnv
}

var benchVariants = []struct {
	name string
	get  func(*benchMats) *Matrix
}{
	{"plain", func(e *benchMats) *Matrix { return e.plain }},
	{"rrr16", func(e *benchMats) *Matrix { return e.rrr16 }},
}

// benchQueries draws (symbol, k) pairs with k in-range for the symbol, so
// Select exercises the full descent+ascent, not the early-out.
func benchQueries(m *Matrix, seq []uint64) (cs []uint64, ks []int) {
	rng := rand.New(rand.NewSource(52))
	cs = make([]uint64, 1024)
	ks = make([]int, 1024)
	for i := range cs {
		c := seq[rng.Intn(len(seq))]
		cs[i] = c
		ks[i] = 1 + rng.Intn(m.Rank(c, m.Len()))
	}
	return cs, ks
}

func BenchmarkWaveletAccess(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			e := loadBenchMats()
			m := v.get(e)
			is := rand.New(rand.NewSource(53)).Perm(1024)
			b.ResetTimer()
			var s uint64
			for i := 0; i < b.N; i++ {
				s += m.Access(is[i&1023] * (benchN / 1024))
			}
			sinkU64 = s
		})
	}
}

func BenchmarkWaveletRank(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			e := loadBenchMats()
			m := v.get(e)
			cs, _ := benchQueries(m, e.seq)
			b.ResetTimer()
			s := 0
			for i := 0; i < b.N; i++ {
				s += m.Rank(cs[i&1023], benchN/2)
			}
			sinkInt = s
		})
	}
}

func BenchmarkWaveletRank2(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			e := loadBenchMats()
			m := v.get(e)
			cs, _ := benchQueries(m, e.seq)
			b.ResetTimer()
			s := 0
			for i := 0; i < b.N; i++ {
				lo, hi := m.Rank2(cs[i&1023], benchN/4, 3*benchN/4)
				s += hi - lo
			}
			sinkInt = s
		})
	}
}

func BenchmarkWaveletSelect(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			e := loadBenchMats()
			m := v.get(e)
			cs, ks := benchQueries(m, e.seq)
			b.ResetTimer()
			s := 0
			for i := 0; i < b.N; i++ {
				s += m.Select(cs[i&1023], ks[i&1023])
			}
			sinkInt = s
		})
	}
}

func BenchmarkWaveletRangeNext(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			e := loadBenchMats()
			m := v.get(e)
			cs, _ := benchQueries(m, e.seq)
			b.ResetTimer()
			var s uint64
			for i := 0; i < b.N; i++ {
				val, ok := m.RangeNextValue(benchN/4, 3*benchN/4, cs[i&1023])
				if ok {
					s += val
				}
			}
			sinkU64 = s
		})
	}
}

// BenchmarkWaveletDistinct enumerates the distinct symbols of a
// 512-position range, and of a range of one to four positions, where a
// range of one position soon fixes the rest of the path.
func BenchmarkWaveletDistinct(b *testing.B) {
	for _, v := range benchVariants {
		for _, tc := range []struct {
			name string
			size func(i int) int
		}{
			{"512", func(int) int { return 512 }},
			{"le4", func(i int) int { return 1 + i&3 }},
		} {
			b.Run(v.name+"/"+tc.name, func(b *testing.B) {
				m := v.get(loadBenchMats())
				b.ResetTimer()
				s := 0
				for i := 0; i < b.N; i++ {
					lo := (i * 509) & (benchN - 1)
					hi := min(lo+tc.size(i), benchN)
					m.DistinctInRange(lo, hi, func(c uint64, cnt int) bool {
						s += cnt
						return true
					})
				}
				sinkInt = s
			})
		}
	}
}

// BenchmarkIntersectRanges intersects two ranges of one matrix (k = 2),
// in two cases: tiny ranges of one to four positions, where a range of
// one position soon fixes the rest of the path, and wide ranges of 4,096
// positions, where the walk branches before it narrows.
func BenchmarkIntersectRanges(b *testing.B) {
	for _, v := range benchVariants {
		for _, tc := range []struct {
			name  string
			sizes func(*rand.Rand) (int, int)
		}{
			{"tiny", func(rng *rand.Rand) (int, int) { return 1 + rng.Intn(4), 1 + rng.Intn(4) }},
			{"wide", func(*rand.Rand) (int, int) { return 4096, 4096 }},
		} {
			b.Run(v.name+"/"+tc.name, func(b *testing.B) {
				m := v.get(loadBenchMats())
				rng := rand.New(rand.NewSource(54))
				qs := make([][][2]int, 1024)
				for i := range qs {
					a, c := tc.sizes(rng)
					lo1, lo2 := rng.Intn(benchN-a), rng.Intn(benchN-c)
					qs[i] = [][2]int{{lo1, lo1 + a}, {lo2, lo2 + c}}
				}
				b.ResetTimer()
				s := 0
				for i := 0; i < b.N; i++ {
					m.IntersectRanges(qs[i&1023], func(uint64) bool {
						s++
						return true
					})
				}
				sinkInt = s
			})
		}
	}
}
