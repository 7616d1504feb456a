package wcoring

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/rpq"
	"repro/internal/testutil"
)

// Fuzz targets double as robustness tests: on every `go test` run they
// exercise the seed corpus; `go test -fuzz=Fuzz<Name>` explores further.
// The invariant in each case is "malformed input must error, never
// panic, and valid input must round-trip".

// Every store load is ViewStore over some bytes, so the store fuzzers
// hold together the one fork left, which is where the words come from:
// an 8-byte-aligned buffer (payloads alias it), the same bytes one byte
// off alignment (payloads are copied), or ReadStore's own buffer filled
// from a reader. FuzzReadStore compares the reader against the aligned
// view, FuzzViewStore the aligned view against the copy fallback.

// FuzzReadStore checks that ReadStore, fed the bytes through a reader,
// accepts and rejects what ViewStore does on an aligned copy of them,
// without panicking, and answers a query identically on acceptance.
func FuzzReadStore(f *testing.F) {
	addStoreSeeds(f, []StringTriple{
		{S: "a", P: "p", O: "b"},
		{S: "b", P: "p", O: "c"},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameStoreLoads(t, data, "aligned", "read")
	})
}

// FuzzViewStore checks that ViewStore takes the same verdict and gives
// the same answers whether the bytes are 8-byte aligned (aliased) or one
// byte off (copy fallback).
func FuzzViewStore(f *testing.F) {
	addStoreSeeds(f, []StringTriple{
		{S: "a", P: "p", O: "b"},
		{S: "b", P: "p", O: "c"},
		{S: "c", P: "q", O: "a"},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameStoreLoads(t, data, "aligned", "skew-1")
	})
}

// addStoreSeeds seeds f with the image of a store over triples, its
// first half, empty and garbage input, and single-byte corruptions.
func addStoreSeeds(f *testing.F, triples []StringTriple) {
	store, err := NewStore(triples, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not an index"))
	for _, i := range []int{0, 8, 20, len(valid) / 2, len(valid) - 1} {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x5A
		f.Add(c)
	}
}

// sameStoreLoads loads data in each of the named ways and fails unless
// all reach the same verdict and, on acceptance, the same query answer.
func sameStoreLoads(t *testing.T, data []byte, ways ...string) {
	load := map[string]func() (*Store, error){
		"aligned": func() (*Store, error) { return ViewStore(alignedCopy(data, 0)) },
		"skew-1":  func() (*Store, error) { return ViewStore(alignedCopy(data, 1)) },
		"read":    func() (*Store, error) { return ReadStore(bytes.NewReader(data)) },
	}
	// outcome is what one load did with data: its verdict and, on
	// acceptance, a query's answer.
	type outcome struct {
		loaded  bool
		sols    []map[string]string
		queryOK bool
	}
	var want outcome
	for i, way := range ways {
		var got outcome
		s, err := load[way]()
		if got.loaded = err == nil; got.loaded {
			var qerr error
			got.sols, qerr = s.Select([]PatternString{{S: "?x", P: "?p", O: "?y"}}, SelectOptions{QueryOptions: QueryOptions{Limit: 10}})
			got.queryOK = qerr == nil
		}
		if i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v (err %v), %s: %+v", way, got, err, ways[0], want)
		}
	}
}

// FuzzParseTSV feeds arbitrary text to the triple parser.
func FuzzParseTSV(f *testing.F) {
	f.Add("a b c\n")
	f.Add("a b\n")
	f.Add("# comment\n\n x\ty\tz ")
	f.Fuzz(func(t *testing.T, data string) {
		ts, err := ParseTSV(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, tr := range ts {
			if tr.S == "" || tr.P == "" || tr.O == "" {
				t.Fatalf("parser returned empty component: %+v", tr)
			}
		}
	})
}

// FuzzParallelLTJ is the differential fuzzer for intra-query
// parallelism: over random graphs and random patterns of every shape,
// the parallel engine at 2, 4 and 8 workers must return exactly the
// sequential solution multiset, and under a Limit it must return
// min(Limit, total) solutions all drawn from that multiset.
func FuzzParallelLTJ(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint16(0))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1))
	f.Add(int64(3), uint8(4), uint8(4), uint16(7))
	f.Add(int64(99), uint8(3), uint8(2), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, nt, nv uint8, limit uint16) {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 80+rng.Intn(80), 4+graph.ID(rng.Intn(16)), 1+graph.ID(rng.Intn(4)))
		r := ring.New(g, ring.Options{})
		idx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
			return r.NewPatternState(tp)
		})
		q := testutil.RandomPattern(rng, g, 1+int(nt)%4, 1+int(nv)%4, 0.35, false)

		seq, err := ltj.Evaluate(idx, q, ltj.Options{})
		if err != nil {
			t.Fatalf("sequential %v: %v", q, err)
		}
		want := graph.CanonicalizeBindings(seq.Solutions, q.Vars())
		wantCount := map[string]int{}
		for _, k := range want {
			wantCount[k]++
		}

		for _, p := range []int{2, 4, 8} {
			par, err := ltj.Evaluate(idx, q, ltj.Options{Parallelism: p})
			if err != nil {
				t.Fatalf("P=%d %v: %v", p, q, err)
			}
			got := graph.CanonicalizeBindings(par.Solutions, q.Vars())
			if len(got) != len(want) {
				t.Fatalf("P=%d %v: %d solutions, want %d", p, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d %v: multiset diverges at %d: %s != %s", p, q, i, got[i], want[i])
				}
			}

			if limit == 0 {
				continue
			}
			lim, err := ltj.Evaluate(idx, q, ltj.Options{Parallelism: p, Limit: int(limit)})
			if err != nil {
				t.Fatalf("P=%d limit=%d %v: %v", p, limit, q, err)
			}
			wantN := int(limit)
			if len(want) < wantN {
				wantN = len(want)
			}
			if len(lim.Solutions) != wantN {
				t.Fatalf("P=%d limit=%d %v: %d solutions, want %d", p, limit, q, len(lim.Solutions), wantN)
			}
			gotCount := map[string]int{}
			for _, k := range graph.CanonicalizeBindings(lim.Solutions, q.Vars()) {
				gotCount[k]++
			}
			for k, n := range gotCount {
				if n > wantCount[k] {
					t.Fatalf("P=%d limit=%d %v: solution %s appears %d times, sequential has %d",
						p, limit, q, k, n, wantCount[k])
				}
			}
		}
	})
}

// FuzzParsePath feeds arbitrary expressions to the property-path parser.
func FuzzParsePath(f *testing.F) {
	f.Add("a/b|c*")
	f.Add("^(a|b)+/c?")
	f.Add("((((")
	f.Add("a//b")
	f.Add("^")
	resolve := func(name string) (ID, bool) { return ID(len(name)), true }
	f.Fuzz(func(t *testing.T, expr string) {
		e, err := rpq.ParsePath(expr, resolve)
		if err != nil {
			return
		}
		// A parsed expression must compile into a well-formed NFA.
		a := rpq.Compile(e)
		if a.States() < 2 {
			t.Fatalf("parsed %q into a %d-state NFA", expr, a.States())
		}
	})
}
