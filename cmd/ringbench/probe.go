package main

import (
	"math/bits"
	"math/rand"
	"time"

	rbits "repro/internal/bits"
	"repro/internal/bitvector"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/wavelet"
)

// sink keeps the probes' results alive so the compiler cannot drop the
// calls being timed.
var sink uint64

// probe times one layer function: batch runs the call over every
// pre-generated argument and returns how many units of work that was (calls,
// or values produced for the *_per_value rows). The row is the median of
// the batch means, in nanoseconds per unit, and each batch is one span.
func (h *harness) probe(name string, batch func() int) {
	per := make([]float64, h.cfg.sc.probeBatches)
	for b := range per {
		t0 := time.Now()
		units := batch()
		t1 := time.Now()
		h.tr.add(name, "probe", b, t0, t1)
		per[b] = float64(t1.Sub(t0).Nanoseconds()) / float64(max(units, 1))
	}
	h.set(name, median(per), "ns")
}

// probeBitsCap bounds the synthetic bitvectors: 64 Mbit is 8 MB plain, twice
// the reference host's L2, and builds in well under a second.
const probeBitsCap = 1 << 26

// probeLayers runs the micro-probes of bits, bitvector, wavelet and ring
// against the index the workload just queried, so what is in cache is what
// the workload left there. g is the graph the ring was built from (nil
// rebuilds it from the ring, which the index replaces); it feeds the C-Ring
// built for the ring.cring_* rows.
func (h *harness) probeLayers(r *ring.Ring, g *graph.Graph) {
	rng := rand.New(rand.NewSource(h.cfg.seed + 7))
	ops := h.cfg.sc.probeOps
	h.logf("probing bits and bitvector ...")
	h.probeBits(rng, ops)
	h.probeBitvectors(rng, ops, min(8*r.SizeBytes(), probeBitsCap))
	h.logf("probing wavelet and ring ...")
	h.probeWavelet(rng, ops, r.Column(ring.ZoneSPO))
	h.probeRing(rng, ops, r, "")
	h.logf("building and probing the C-Ring ...")
	if g == nil {
		g = graph.NewWithDomains(r.Triples(), r.NumSO(), r.NumP())
	}
	cr := ring.New(g, ring.Options{Compress: true, RRRBlock: 16})
	h.probeRing(rng, ops, cr, "cring")
	h.set("ring.cring_bytes_per_triple", cr.BytesPerTriple(), "B/triple")
}

func (h *harness) probeBits(rng *rand.Rand, ops int) {
	words, ks := make([]uint64, ops), make([]int, ops)
	for i := range words {
		words[i] = rng.Uint64() | 1
		ks[i] = rng.Intn(bits.OnesCount64(words[i]))
	}
	h.probe("bits.select64_ns", func() int {
		s := 0
		for i, w := range words {
			s += rbits.Select64(w, ks[i])
		}
		sink += uint64(s)
		return ops
	})
}

// probeBitvectors times rank and select on the three bitvector flavours
// over n seeded bits: half set for Plain and RRR (a wavelet level of a
// shuffled ID space is a fair coin), one in 64 for Sparse (the density of a
// C array stored as Elias–Fano).
func (h *harness) probeBitvectors(rng *rand.Rand, ops, n int) {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = rng.Uint64()
	}
	if n%64 != 0 {
		words[len(words)-1] &= 1<<(n%64) - 1
	}
	get := func(i int) bool { return words[i/64]>>(i%64)&1 == 1 }
	var ones []int
	for i := 0; i < n; i += 64 {
		ones = append(ones, i+rng.Intn(min(64, n-i)))
	}
	vecs := []struct {
		name string
		v    bitvector.Vector
	}{
		{"plain", bitvector.PlainFromWords(words, n)},
		{"rrr", bitvector.NewRRR(n, 16, get)},
		{"sparse", bitvector.NewSparse(n, ones)},
	}
	pos := make([]int, ops)
	for _, bv := range vecs {
		v := bv.v
		for i := range pos {
			pos[i] = rng.Intn(n)
		}
		h.probe("bitvector."+bv.name+".rank1_ns", func() int {
			s := 0
			for _, p := range pos {
				s += v.Rank1(p)
			}
			sink += uint64(s)
			return ops
		})
		total := v.Rank1(n)
		for i := range pos {
			pos[i] = 1 + rng.Intn(total)
		}
		h.probe("bitvector."+bv.name+".select1_ns", func() int {
			s := 0
			for _, k := range pos {
				s += v.Select1(k)
			}
			sink += uint64(s)
			return ops
		})
	}
}

// probeWavelet times the wavelet-matrix operations on one column of the
// workload's own ring: the SPO zone's column, which codes objects and so has
// the full subject/object alphabet and the full number of levels.
func (h *harness) probeWavelet(rng *rand.Rand, ops int, m *wavelet.Matrix) {
	n := m.Len()
	type arg struct {
		c      uint64
		i, k   int
		lo, hi int
	}
	args := make([]arg, ops)
	for j := range args {
		a := &args[j]
		a.i = rng.Intn(n)
		a.c = m.Access(rng.Intn(n))
		a.k = 1 + rng.Intn(m.Rank(a.c, n))
		a.lo = rng.Intn(n)
		a.hi = min(n, a.lo+64+rng.Intn(448))
	}
	h.probe("wavelet.access_ns", func() int {
		var s uint64
		for j := range args {
			s += m.Access(args[j].i)
		}
		sink += s
		return ops
	})
	h.probe("wavelet.rank_ns", func() int {
		s := 0
		for j := range args {
			s += m.Rank(args[j].c, args[j].i)
		}
		sink += uint64(s)
		return ops
	})
	h.probe("wavelet.select_ns", func() int {
		s := 0
		for j := range args {
			s += m.Select(args[j].c, args[j].k)
		}
		sink += uint64(s)
		return ops
	})
	// Range successor: the smallest symbol ≥ c in a random window, c drawn
	// from the column so that about half the windows hold a successor.
	h.probe("wavelet.range_next_ns", func() int {
		var s uint64
		for j := range args {
			v, _ := m.RangeNextValue(args[j].lo, args[j].hi, args[j].c)
			s += v
		}
		sink += s
		return ops
	})
	// The batched kernels are cheap per value and dear per call, so they run
	// on a tenth of the arguments and are charged per value produced.
	few := args[:max(ops/10, 1)]
	buf := make([]uint64, 0, 64)
	h.probe("wavelet.next_values_ns_per_value", func() int {
		values := 0
		for j := range few {
			out := m.NextValues(few[j].lo, few[j].hi, 0, buf[:0])
			values += len(out)
		}
		sink += uint64(values)
		return values
	})
	// Two windows that overlap by half share every symbol of the overlap,
	// so the intersection is never empty (and emits a hundred values or so
	// a call, hence fewer calls still).
	few = few[:max(len(few)/5, 1)]
	h.probe("wavelet.intersect_ranges_ns_per_value", func() int {
		values := 0
		for j := range few {
			lo, hi := few[j].lo, few[j].hi
			half := (hi - lo) / 2
			m.IntersectRanges([][2]int{{lo, hi}, {lo + half, min(n, hi+half)}}, func(uint64) bool {
				values++
				return true
			})
		}
		sink += uint64(values)
		return values
	})
}

// probeRing times the trie-iterator operations of ring.PatternState. With
// prefix "cring" only the subject leap is reported, as ring.cring_leap_ns.
func (h *harness) probeRing(rng *rand.Rand, ops int, r *ring.Ring, prefix string) {
	n := r.Len()
	numSO := int(r.NumSO())
	type arg struct {
		t graph.Triple
		c graph.ID
	}
	args := make([]arg, ops)
	for j := range args {
		args[j] = arg{t: r.Triple(rng.Intn(n)), c: graph.ID(rng.Intn(numSO))}
	}
	x, y := graph.Var("x"), graph.Var("y")
	// leap times Leap on a fresh (?x, p, ?y)-style state per call: build
	// the states untimed, then leap each once.
	leap := func(name string, pos graph.Position, tpOf func(t graph.Triple) graph.TriplePattern, cOf func(a arg) graph.ID) {
		states := make([]*ring.PatternState, len(args))
		for j := range args {
			states[j] = r.NewPatternState(tpOf(args[j].t))
		}
		h.probe(name, func() int {
			var s graph.ID
			for j, ps := range states {
				v, _ := ps.Leap(pos, cOf(args[j]))
				s += v
			}
			sink += uint64(s)
			return ops
		})
	}
	byPred := func(t graph.Triple) graph.TriplePattern { return graph.TP(x, graph.Const(t.P), y) }
	soValue := func(a arg) graph.ID { return a.c }
	if prefix == "cring" {
		leap("ring.cring_leap_ns", graph.PosS, byPred, soValue)
		return
	}
	h.probe("ring.new_pattern_state_ns", func() int {
		s := 0
		for j := range args {
			s += r.NewPatternState(byPred(args[j].t)).Count()
		}
		sink += uint64(s)
		return ops
	})
	leap("ring.leap_s_ns", graph.PosS, byPred, soValue)
	leap("ring.leap_o_ns", graph.PosO, byPred, soValue)
	leap("ring.leap_p_ns", graph.PosP,
		func(t graph.Triple) graph.TriplePattern { return graph.TP(graph.Const(t.S), x, y) },
		func(a arg) graph.ID { return a.t.P })

	// Bind + Unbind of a subject known to match, on one long-lived state
	// per predicate (the pair LTJ issues for every candidate it descends).
	states := make([]*ring.PatternState, len(args))
	for j := range args {
		states[j] = r.NewPatternState(byPred(args[j].t))
	}
	h.probe("ring.bind_ns", func() int {
		s := 0
		for j, ps := range states {
			ps.Bind(graph.PosS, args[j].t.S)
			s += ps.Count()
			ps.Unbind()
		}
		sink += uint64(s)
		return ops
	})
	few := states[:max(ops/10, 1)]
	buf := make([]graph.ID, 0, 64)
	h.probe("ring.batch_leap_ns_per_value", func() int {
		values := 0
		for _, ps := range few {
			values += len(ps.BatchLeap(graph.PosS, 0, buf[:0]))
		}
		sink += uint64(values)
		return values
	})
}

// probeUnion compares Leap through the dynamic store's union iterator with
// Leap through a union over a single ring and with the bare ring — the
// number that says what serving a static file as "a live store with one
// ring and no memtable" would cost.
func (h *harness) probeUnion(name string, idx ltj.Index, triples []graph.Triple, numSO int) {
	rng := rand.New(rand.NewSource(h.cfg.seed + 11))
	ops := h.cfg.sc.probeOps
	x, y := graph.Var("x"), graph.Var("y")
	iters := make([]ltj.PatternIter, ops)
	cs := make([]graph.ID, ops)
	for j := range iters {
		t := triples[rng.Intn(len(triples))]
		iters[j] = idx.NewPatternIter(graph.TP(x, graph.Const(t.P), y))
		cs[j] = graph.ID(rng.Intn(numSO))
	}
	h.probe(name, func() int {
		var s graph.ID
		for j, it := range iters {
			v, _ := it.Leap(graph.PosS, cs[j])
			s += v
		}
		sink += uint64(s)
		return ops
	})
}
