package ring

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
	"repro/internal/wavelet"
)

var bothVariants = []struct {
	name string
	opt  Options
}{
	{"ring", Options{}},
	{"c-ring", Options{Compress: true, RRRBlock: 16}},
	{"ring-sparse-c", Options{SparseC: true}},
	{"c-ring-sparse-c", Options{Compress: true, RRRBlock: 16, SparseC: true}},
}

func TestTripleRetrievalReplacesData(t *testing.T) {
	// Theorem 3.4: the index can reproduce every triple, so it replaces the
	// raw data.
	rng := rand.New(rand.NewSource(31))
	for _, tc := range bothVariants {
		for _, n := range []int{0, 1, 2, 10, 500} {
			g := testutil.RandomGraph(rng, n, 50, 5)
			r := New(g, tc.opt)
			if r.Len() != g.Len() {
				t.Fatalf("%s n=%d: Len = %d, want %d", tc.name, n, r.Len(), g.Len())
			}
			got := r.Triples()
			want := g.Triples()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Triple(%d) = %v, want %v", tc.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTriplesMatchesTriple checks the linear-pass Triples against the
// per-position LF-step reconstruction and the graph, on graphs whose
// columns span several wavelet levels.
func TestTriplesMatchesTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, v := range bothVariants {
		for _, c := range []struct {
			n           int
			numSO, numP graph.ID
		}{{2000, 1000, 30}, {3000, 1 << 16, 300}, {50, 1 << 20, 2}} {
			g := testutil.RandomGraph(rng, c.n, c.numSO, c.numP)
			r := New(g, v.opt)
			got := r.Triples()
			if !slices.Equal(got, g.Triples()) {
				t.Fatalf("%s over %d triples: Triples differs from the graph", v.name, g.Len())
			}
			for i := range got {
				if tr := r.Triple(i); tr != got[i] {
					t.Fatalf("%s: Triples()[%d] = %v, Triple(%d) = %v", v.name, i, got[i], i, tr)
				}
			}
		}
	}
}

// lfCycleCheck verifies Lemma 3.3 for rotation i of zone SPO: three
// LF-steps return to i.
func lfCycleCheck(r *Ring, i int) bool {
	o := r.cols[ZoneSPO].Access(i)
	j := r.lfPos(ZoneOSP, o, r.cols[ZoneSPO].Rank(o, i))
	p := r.cols[ZoneOSP].Access(j)
	k := r.lfPos(ZonePOS, p, r.cols[ZoneOSP].Rank(p, j))
	s := r.cols[ZonePOS].Access(k)
	back := r.lfPos(ZoneSPO, s, r.cols[ZonePOS].Rank(s, k))
	return back == i
}

func TestLFCycles(t *testing.T) {
	// Lemma 3.3: three LF-steps starting from any rotation return to it.
	g := testutil.RandomGraph(rand.New(rand.NewSource(32)), 300, 40, 6)
	r := New(g, Options{})
	for i := 0; i < r.Len(); i++ {
		if !lfCycleCheck(r, i) {
			t.Fatalf("LF cycle broken at rotation %d", i)
		}
	}
}

// TestBendedBWTDefinition checks the split representation against the
// paper's Definition 3.1 computed the slow way: build the text
// T = s1 p1 o1 ... sn pn on $ over shifted identifiers, compute its suffix
// array by brute force, extract BWT, bend it, and compare the three zones
// with the ring's stored columns.
func TestBendedBWTDefinition(t *testing.T) {
	g := testutil.PaperGraph()
	r := New(g, Options{})
	n := g.Len()
	U := uint64(g.NumSO())
	if up := uint64(g.NumP()); up > U {
		U = up
	}

	// Shifted text: subjects as-is, predicates +U, objects +2U, then $ as
	// the largest symbol 3U.
	ts := g.Triples()
	text := make([]uint64, 0, 3*n+1)
	for _, tr := range ts {
		text = append(text, uint64(tr.S), uint64(tr.P)+U, uint64(tr.O)+2*U)
	}
	text = append(text, 3*U)

	// Brute-force suffix array.
	sa := make([]int, len(text))
	for i := range sa {
		sa[i] = i
	}
	sort.Slice(sa, func(a, b int) bool {
		i, j := sa[a], sa[b]
		for i < len(text) && j < len(text) {
			if text[i] != text[j] {
				return text[i] < text[j]
			}
			i++
			j++
		}
		return i > j // the shorter suffix has consumed the terminator earlier
	})
	bwt := make([]uint64, len(text))
	for k, p := range sa {
		if p == 0 {
			bwt[k] = text[len(text)-1]
		} else {
			bwt[k] = text[p-1]
		}
	}
	// Definition 3.1 (1-based in the paper): BWT*[1..3n] =
	// BWT[2..n] · BWT[3n+1] · BWT[n+1..3n].
	bended := append(append(append([]uint64{}, bwt[1:n]...), bwt[3*n]), bwt[n:3*n]...)

	// Zone SPO (objects zone): bended[0..n) are shifted objects.
	for i := 0; i < n; i++ {
		want := bended[i] - 2*U
		if got := r.Column(ZoneSPO).Access(i); got != want {
			t.Fatalf("BWT_o[%d] = %d, want %d (per Definition 3.1)", i, got, want)
		}
	}
	// Zone POS (subjects zone): bended[n..2n) are unshifted subjects.
	for i := 0; i < n; i++ {
		if got, want := r.Column(ZonePOS).Access(i), bended[n+i]; got != want {
			t.Fatalf("BWT_s[%d] = %d, want %d", i, got, want)
		}
	}
	// Zone OSP (predicates zone): bended[2n..3n) are shifted predicates.
	for i := 0; i < n; i++ {
		want := bended[2*n+i] - U
		if got := r.Column(ZoneOSP).Access(i); got != want {
			t.Fatalf("BWT_p[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestPaperExampleColumns(t *testing.T) {
	// Figure 6 of the paper shows the bended BWT of the Nobel graph:
	// BWT* = 20 23 19 19 20 21 22 23 19 20 21 22 | 5 3 4 6*10 | 16 17 18 16
	// 17 18 17 18 16 17 (1-based ids; predicates shown shifted by U=9,
	// objects by 2U=18). Our encoding is 0-based and unshifted, so the
	// object zone is those values minus 19, subjects minus 1, predicates
	// minus 16 (adv=16→0, nom=17→1, win=18→2).
	r := New(testutil.PaperGraph(), Options{})
	wantO := []uint32{2, 1, 0, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3}
	// Figure 6's triple set differs from ours in one nomination edge, so
	// rather than hard-coding the figure we recompute: objects of triples
	// sorted (s,p,o).
	ts := testutil.PaperGraph().Triples()
	for i, tr := range ts {
		wantO[i] = tr.O
	}
	for i := range wantO {
		if got := graph.ID(r.Column(ZoneSPO).Access(i)); got != wantO[i] {
			t.Fatalf("object zone[%d] = %d, want %d", i, got, wantO[i])
		}
	}
}

func TestCRange(t *testing.T) {
	g := testutil.PaperGraph()
	r := New(g, Options{})
	// Subject 5 (Nobel) has 9 triples; subjects 0..4 have one each.
	lo, hi := r.CRange(ZoneSPO, 5)
	if hi-lo != 9 {
		t.Errorf("CRange(spo, Nobel) size = %d, want 9", hi-lo)
	}
	// Predicate 1 (nom) has 5 triples.
	lo, hi = r.CRange(ZonePOS, 1)
	if hi-lo != 5 {
		t.Errorf("CRange(pos, nom) size = %d, want 5", hi-lo)
	}
	// Object 0 (Bohr) is the object of adv(Wheeler,Bohr), nom, win: 3.
	lo, hi = r.CRange(ZoneOSP, 0)
	if hi-lo != 3 {
		t.Errorf("CRange(osp, Bohr) size = %d, want 3", hi-lo)
	}
	// Out-of-domain constants yield empty ranges.
	lo, hi = r.CRange(ZoneSPO, 100)
	if lo != hi {
		t.Errorf("out-of-domain CRange = [%d,%d), want empty", lo, hi)
	}
}

// oracleCount counts triples matching a pattern with bindings applied.
func oracleCount(g *graph.Graph, tp graph.TriplePattern, bound map[graph.Position]graph.ID) int {
	cnt := 0
	for _, tr := range g.Triples() {
		vals := map[graph.Position]graph.ID{graph.PosS: tr.S, graph.PosP: tr.P, graph.PosO: tr.O}
		ok := true
		for _, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
			if c, isBound := bound[pos]; isBound && vals[pos] != c {
				ok = false
				break
			}
			if term := tp.Term(pos); !term.IsVar && vals[pos] != term.Value {
				ok = false
				break
			}
		}
		if ok {
			cnt++
		}
	}
	return cnt
}

// oracleLeap computes the expected result of Leap by brute force.
func oracleLeap(g *graph.Graph, tp graph.TriplePattern, bound map[graph.Position]graph.ID,
	pos graph.Position, c graph.ID) (graph.ID, bool) {
	best, found := graph.ID(0), false
	for _, tr := range g.Triples() {
		vals := map[graph.Position]graph.ID{graph.PosS: tr.S, graph.PosP: tr.P, graph.PosO: tr.O}
		ok := vals[pos] >= c
		for _, q := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
			if b, isBound := bound[q]; isBound && vals[q] != b {
				ok = false
			}
			if term := tp.Term(q); !term.IsVar && vals[q] != term.Value {
				ok = false
			}
		}
		if ok && (!found || vals[pos] < best) {
			best, found = vals[pos], true
		}
	}
	return best, found
}

// TestPatternStateAgainstOracle drives random bind/leap sequences on random
// patterns and compares every observable against brute force. This is the
// central correctness test for Lemmas 3.6 and 3.7.
func TestPatternStateAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range bothVariants {
		g := testutil.RandomGraph(rng, 200, 25, 4)
		r := New(g, tc.opt)
		for trial := 0; trial < 400; trial++ {
			// Random pattern: each position constant (bound at creation) or
			// variable (to be bound interactively).
			var tp graph.TriplePattern
			varPos := []graph.Position{}
			terms := [3]graph.Term{}
			for i, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
				if rng.Intn(2) == 0 {
					// Constant biased to present values.
					tr := g.Triples()[rng.Intn(g.Len())]
					switch pos {
					case graph.PosS:
						terms[i] = graph.Const(tr.S)
					case graph.PosP:
						terms[i] = graph.Const(tr.P)
					default:
						terms[i] = graph.Const(tr.O)
					}
				} else {
					terms[i] = graph.Var(pos.String())
					varPos = append(varPos, pos)
				}
			}
			tp = graph.TP(terms[0], terms[1], terms[2])
			ps := r.NewPatternState(tp)
			bound := map[graph.Position]graph.ID{}

			if want := oracleCount(g, tp, bound); ps.Count() != want {
				t.Fatalf("%s %v: initial Count = %d, want %d", tc.name, tp, ps.Count(), want)
			}

			// Bind the variables one by one in random order, leaping first.
			rng.Shuffle(len(varPos), func(i, j int) { varPos[i], varPos[j] = varPos[j], varPos[i] })
			for _, pos := range varPos {
				c := graph.ID(rng.Intn(30))
				gotV, gotOK := ps.Leap(pos, c)
				wantV, wantOK := oracleLeap(g, tp, bound, pos, c)
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					t.Fatalf("%s %v bound=%v: Leap(%v,%d) = (%d,%v), want (%d,%v)",
						tc.name, tp, bound, pos, c, gotV, gotOK, wantV, wantOK)
				}
				if !gotOK {
					break
				}
				ps.Bind(pos, gotV)
				bound[pos] = gotV
				if want := oracleCount(g, tp, bound); ps.Count() != want {
					t.Fatalf("%s %v bound=%v: Count = %d, want %d",
						tc.name, tp, bound, ps.Count(), want)
				}
			}
			// Unbind everything and verify the state is restored.
			for range bound {
				ps.Unbind()
			}
			if want := oracleCount(g, tp, map[graph.Position]graph.ID{}); ps.Count() != want {
				t.Fatalf("%s %v: Count after full unbind = %d, want %d", tc.name, tp, ps.Count(), want)
			}
		}
	}
}

func TestEnumerateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := testutil.RandomGraph(rng, 150, 20, 3)
	r := New(g, Options{})
	for trial := 0; trial < 200; trial++ {
		tr := g.Triples()[rng.Intn(g.Len())]
		// Pattern (s, p, ?o): enumerate objects.
		tp := graph.TP(graph.Const(tr.S), graph.Const(tr.P), graph.Var("o"))
		ps := r.NewPatternState(tp)
		if !ps.CanEnumerate(graph.PosO) {
			t.Fatal("cannot enumerate the backward-adjacent object")
		}
		var got []graph.ID
		ps.Enumerate(graph.PosO, func(c graph.ID) bool {
			got = append(got, c)
			return true
		})
		want := map[graph.ID]bool{}
		for _, u := range g.Triples() {
			if u.S == tr.S && u.P == tr.P {
				want[u.O] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Enumerate returned %d values, want %d", len(got), len(want))
		}
		for i, c := range got {
			if !want[c] {
				t.Fatalf("Enumerate returned absent value %d", c)
			}
			if i > 0 && got[i-1] >= c {
				t.Fatalf("Enumerate not strictly increasing: %v", got)
			}
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := testutil.PaperGraph()
	r := New(g, Options{})
	// (Nobel, nom, ?o) has 5 objects; stop after 2.
	ps := r.NewPatternState(graph.TP(graph.Const(5), graph.Const(1), graph.Var("o")))
	calls := 0
	ps.Enumerate(graph.PosO, func(graph.ID) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("early stop made %d calls, want 2", calls)
	}
}

func TestGroundPatternExistence(t *testing.T) {
	g := testutil.PaperGraph()
	r := New(g, Options{})
	present := r.NewPatternState(graph.TP(graph.Const(0), graph.Const(0), graph.Const(2)))
	if present.Count() != 1 {
		t.Errorf("present ground pattern Count = %d, want 1", present.Count())
	}
	absent := r.NewPatternState(graph.TP(graph.Const(2), graph.Const(0), graph.Const(0)))
	if !absent.Empty() {
		t.Error("absent ground pattern not Empty")
	}
	outOfDomain := r.NewPatternState(graph.TP(graph.Const(99), graph.Const(99), graph.Const(99)))
	if !outOfDomain.Empty() {
		t.Error("out-of-domain ground pattern not Empty")
	}
}

func TestLeapOnEmptyGraph(t *testing.T) {
	r := New(graph.New(nil), Options{})
	ps := r.NewPatternState(graph.TP(graph.Var("x"), graph.Var("y"), graph.Var("z")))
	if _, ok := ps.Leap(graph.PosS, 0); ok {
		t.Error("Leap on empty graph returned a value")
	}
	if ps.Count() != 0 {
		t.Errorf("Count on empty graph = %d", ps.Count())
	}
}

func TestUnbindPanicsOnEmptyStack(t *testing.T) {
	r := New(testutil.PaperGraph(), Options{})
	ps := r.NewPatternState(graph.TP(graph.Var("x"), graph.Var("y"), graph.Var("z")))
	defer func() {
		if recover() == nil {
			t.Error("Unbind on empty stack did not panic")
		}
	}()
	ps.Unbind()
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, tc := range bothVariants {
		g := testutil.RandomGraph(rng, 300, 30, 4)
		r := New(g, tc.opt)
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", tc.name, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: Read: %v", tc.name, err)
		}
		if got.Len() != r.Len() || got.NumSO() != r.NumSO() || got.NumP() != r.NumP() {
			t.Fatalf("%s: header mismatch after round-trip", tc.name)
		}
		want := g.Triples()
		for i := range want {
			if got.Triple(i) != want[i] {
				t.Fatalf("%s: Triple(%d) mismatch after round-trip", tc.name, i)
			}
		}
	}
}

func TestSerializationCorrupt(t *testing.T) {
	g := testutil.PaperGraph()
	r := New(g, Options{})
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("accepted truncated index")
	}
	bad := append([]byte(nil), data...)
	bad[1] ^= 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("accepted corrupted magic")
	}
}

func TestCompressedSmallerThanPlain(t *testing.T) {
	// The C-Ring should be smaller than the Ring on a skewed graph (the
	// paper reports roughly half the space on Wikidata).
	rng := rand.New(rand.NewSource(36))
	ts := make([]graph.Triple, 20000)
	for i := range ts {
		// Zipf-ish: many triples share few hub subjects/objects.
		ts[i] = graph.Triple{
			S: graph.ID(rng.Intn(100)),
			P: graph.ID(rng.Intn(4)),
			O: graph.ID(zipfish(rng, 2000)),
		}
	}
	g := graph.New(ts)
	plain := New(g, Options{})
	comp := New(g, Options{Compress: true, RRRBlock: 64})
	if comp.SizeBytes() >= plain.SizeBytes() {
		t.Errorf("C-Ring (%d bytes) not smaller than Ring (%d bytes)",
			comp.SizeBytes(), plain.SizeBytes())
	}
}

func zipfish(rng *rand.Rand, max int) int {
	v := int(float64(max) / (1 + rng.ExpFloat64()*10))
	if v >= max {
		v = max - 1
	}
	return v
}

func TestBytesPerTriple(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(37)), 1000, 200, 10)
	r := New(g, Options{})
	bpt := r.BytesPerTriple()
	if bpt <= 0 || bpt > 1000 {
		t.Errorf("implausible bytes/triple: %f", bpt)
	}
	if New(graph.New(nil), Options{}).BytesPerTriple() != 0 {
		t.Error("empty ring bytes/triple should be 0")
	}
}

func TestSparseCReducesCSpace(t *testing.T) {
	// With a large sparse alphabet, the Elias–Fano C arrays must be much
	// smaller than the packed arrays (footnote 2 of the paper).
	rng := rand.New(rand.NewSource(38))
	ts := make([]graph.Triple, 30000)
	for i := range ts {
		ts[i] = graph.Triple{
			S: graph.ID(rng.Intn(1 << 20)),
			P: graph.ID(rng.Intn(8)),
			O: graph.ID(rng.Intn(1 << 20)),
		}
	}
	g := graph.New(ts)
	packed := New(g, Options{})
	sparse := New(g, Options{SparseC: true})
	if sparse.SizeBytes() >= packed.SizeBytes() {
		t.Errorf("SparseC (%d bytes) not smaller than packed C (%d bytes) on a sparse alphabet",
			sparse.SizeBytes(), packed.SizeBytes())
	}
	// And both must answer identically.
	for trial := 0; trial < 50; trial++ {
		tr := g.Triples()[rng.Intn(g.Len())]
		tp := graph.TP(graph.Const(tr.S), graph.Var("p"), graph.Var("o"))
		a, b := packed.NewPatternState(tp), sparse.NewPatternState(tp)
		if a.Count() != b.Count() {
			t.Fatalf("counts differ: %d vs %d", a.Count(), b.Count())
		}
		va, oka := a.Leap(graph.PosP, 0)
		vb, okb := b.Leap(graph.PosP, 0)
		if oka != okb || va != vb {
			t.Fatalf("leaps differ: (%d,%v) vs (%d,%v)", va, oka, vb, okb)
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	// The ring is read-only: any number of goroutines may query it
	// concurrently, each with its own PatternState. Run under -race.
	g := testutil.RandomGraph(rand.New(rand.NewSource(39)), 500, 40, 5)
	r := New(g, Options{})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				tr := g.Triples()[rng.Intn(g.Len())]
				ps := r.NewPatternState(graph.TP(graph.Const(tr.S), graph.Var("p"), graph.Var("o")))
				if ps.Empty() {
					done <- fmt.Errorf("pattern for present subject is empty")
					return
				}
				if _, ok := ps.Leap(graph.PosP, 0); !ok {
					done <- fmt.Errorf("leap failed for present subject")
					return
				}
				if got := r.Triple(rng.Intn(r.Len())); got.S >= g.NumSO() {
					done <- fmt.Errorf("bad triple %v", got)
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// refNew builds the ring as Section 4.1 describes it: each zone's rotation
// order by its own comparison sort of the triples.
func refNew(g *graph.Graph, opt Options) *Ring {
	r := &Ring{n: g.Len(), numSO: g.NumSO(), numP: g.NumP(), opt: opt}
	alphabet := func(p graph.Position) graph.ID {
		if p == graph.PosP {
			return g.NumP()
		}
		return g.NumSO()
	}
	for z := Zone(0); z < 3; z++ {
		p0, p1, p2 := z.Start(), z.Start().Next(), z.Start().Prev()
		sorted := slices.Clone(g.Triples())
		slices.SortFunc(sorted, func(a, b graph.Triple) int {
			return cmp.Or(cmp.Compare(a.At(p0), b.At(p0)), cmp.Compare(a.At(p1), b.At(p1)), cmp.Compare(a.At(p2), b.At(p2)))
		})
		col := make([]uint64, len(sorted))
		counts := make([]uint64, alphabet(p0)+1)
		for i, t := range sorted {
			col[i] = uint64(t.At(p2))
			counts[t.At(p0)+1]++
		}
		for c := 1; c < len(counts); c++ {
			counts[c] += counts[c-1]
		}
		r.cols[z] = wavelet.New(col, uint64(alphabet(p2)), wavelet.Options{Compress: opt.Compress, RRRBlock: opt.RRRBlock})
		r.c[z] = makeC(counts, opt)
	}
	return r
}

// TestNewMatchesComparisonSortBuild checks that deriving the rotations
// by single-component passes writes the same bytes as sorting each one,
// for every variant, over graphs whose ID spans take each branch of
// graph.SortBy.
func TestNewMatchesComparisonSortBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, c := range []struct {
		n           int
		numSO, numP graph.ID
	}{
		{0, 1, 1}, {1, 5, 2}, {400, 30, 4}, {3000, 2000, 40}, {20000, 70000, 5}, {300, 1 << 20, 1 << 18},
	} {
		g := testutil.RandomGraph(rng, c.n, c.numSO, c.numP)
		for _, v := range bothVariants {
			var got, want bytes.Buffer
			if _, err := New(g, v.opt).WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if _, err := refNew(g, v.opt).WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s over %d triples (numSO %d, numP %d): New differs from the comparison-sort build",
					v.name, g.Len(), c.numSO, c.numP)
			}
		}
	}
}
