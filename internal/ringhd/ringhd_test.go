package ringhd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomTuples(rng *rand.Rand, n, d int, u uint64) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		t := make(Tuple, d)
		for j := range t {
			t[j] = Value(rng.Int63n(int64(u)))
		}
		ts[i] = t
	}
	return ts
}

// naiveCount counts tuples matching the bound attribute values.
func naiveCount(ts []Tuple, bound map[int]Value) int {
	cnt := 0
	for _, t := range ts {
		ok := true
		for a, v := range bound {
			if t[a] != v {
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

func naiveLeap(ts []Tuple, bound map[int]Value, a int, c Value) (Value, bool) {
	best, found := Value(0), false
	for _, t := range ts {
		ok := t[a] >= c
		for b, v := range bound {
			if t[b] != v {
				ok = false
				break
			}
		}
		if ok && (!found || t[a] < best) {
			best, found = t[a], true
		}
	}
	return best, found
}

func dedupForTest(ts []Tuple, d int) []Tuple {
	seen := map[string]bool{}
	var out []Tuple
	for _, t := range ts {
		k := fmt.Sprint(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// tupleAt reconstructs the i-th tuple (in the first cycle's zone-0
// order) by walking the LF cycle: the d-ary ring also replaces the raw
// data.
func tupleAt(idx *Index, i int) Tuple {
	r := idx.rings[0]
	d := idx.d
	out := make(Tuple, d)
	z := 0
	pos := i
	for step := 0; step < d; step++ {
		pz := (z - 1 + d) % d
		v := r.cols[z].Access(pos)
		out[r.cycle[pz]] = Value(v)
		pos = int(r.c[pz].Get(int(v))) + r.cols[z].Rank(v, pos)
		z = pz
	}
	return out
}

func TestTupleRetrieval(t *testing.T) {
	for _, d := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		raw := randomTuples(rng, 200, d, 12)
		idx := New(raw, d, 12)
		distinct := dedupForTest(raw, d)
		if idx.Len() != len(distinct) {
			t.Fatalf("d=%d: Len = %d, want %d", d, idx.Len(), len(distinct))
		}
		got := make([]Tuple, idx.Len())
		for i := range got {
			got[i] = tupleAt(idx, i)
		}
		canon := func(ts []Tuple) []string {
			out := make([]string, len(ts))
			for i, x := range ts {
				out[i] = fmt.Sprint(x)
			}
			sort.Strings(out)
			return out
		}
		if !reflect.DeepEqual(canon(got), canon(distinct)) {
			t.Fatalf("d=%d: retrieved tuples differ from input", d)
		}
	}
}

func TestCountAndLeapAgainstOracle(t *testing.T) {
	for _, d := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(200 + d)))
		raw := randomTuples(rng, 300, d, 8)
		distinct := dedupForTest(raw, d)
		idx := New(raw, d, 8)
		for trial := 0; trial < 300; trial++ {
			// Random bound set of size 0..d-1, then leap a random free attr.
			bound := map[int]Value{}
			perm := rng.Perm(d)
			k := rng.Intn(d)
			for _, a := range perm[:k] {
				bound[a] = Value(rng.Int63n(8))
			}
			if got, want := idx.Count(bound), naiveCount(distinct, bound); got != want {
				t.Fatalf("d=%d: Count(%v) = %d, want %d", d, bound, got, want)
			}
			a := perm[k]
			c := Value(rng.Int63n(8))
			gv, gok := idx.Leap(bound, a, c)
			wv, wok := naiveLeap(distinct, bound, a, c)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("d=%d: Leap(%v, %d, %d) = (%d,%v), want (%d,%v)",
					d, bound, a, c, gv, gok, wv, wok)
			}
		}
	}
}

// naiveJoin evaluates the query by brute force.
func naiveJoin(ts []Tuple, q Query) []map[string]Value {
	var out []map[string]Value
	var rec func(i int, b map[string]Value)
	rec = func(i int, b map[string]Value) {
		if i == len(q) {
			cp := map[string]Value{}
			for k, v := range b {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		for _, t := range ts {
			ext := map[string]Value{}
			for k, v := range b {
				ext[k] = v
			}
			ok := true
			for a, term := range q[i] {
				if !term.IsVar {
					if t[a] != term.Value {
						ok = false
						break
					}
					continue
				}
				if v, bound := ext[term.Name]; bound {
					if v != t[a] {
						ok = false
						break
					}
				} else {
					ext[term.Name] = t[a]
				}
			}
			if ok {
				rec(i+1, ext)
			}
		}
	}
	rec(0, map[string]Value{})
	return out
}

func canonBindings(bs []map[string]Value, vars []string) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		s := ""
		for _, v := range vars {
			s += fmt.Sprintf("%s=%d;", v, b[v])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func TestEvaluateAgainstOracle(t *testing.T) {
	for _, d := range []int{4, 5} {
		rng := rand.New(rand.NewSource(int64(300 + d)))
		raw := randomTuples(rng, 120, d, 5)
		distinct := dedupForTest(raw, d)
		idx := New(raw, d, 5)
		for trial := 0; trial < 25; trial++ {
			// Random query of 1-3 patterns over a pool of variables. The
			// pool must exceed the arity: variables may not repeat within a
			// pattern, so a pattern can need up to d distinct names.
			nq := 1 + rng.Intn(3)
			varPool := []string{"x", "y", "z", "w", "u", "t"}[:d+1]
			q := make(Query, nq)
			for i := range q {
				tp := make(TuplePattern, d)
				used := map[string]bool{}
				for a := range tp {
					if rng.Intn(3) == 0 {
						tp[a] = C(Value(rng.Int63n(5)))
						continue
					}
					// Pick an unused-in-this-pattern variable.
					for {
						name := varPool[rng.Intn(len(varPool))]
						if !used[name] {
							used[name] = true
							tp[a] = V(name)
							break
						}
					}
				}
				q[i] = tp
			}
			want := naiveJoin(distinct, q)
			got, err := idx.Evaluate(q, 0)
			if err != nil {
				t.Fatalf("d=%d query %v: %v", d, q, err)
			}
			// Collect variable list.
			varSet := map[string]bool{}
			var vars []string
			for _, tp := range q {
				for _, term := range tp {
					if term.IsVar && !varSet[term.Name] {
						varSet[term.Name] = true
						vars = append(vars, term.Name)
					}
				}
			}
			gotB := make([]map[string]Value, len(got))
			for i, b := range got {
				gotB[i] = b
			}
			if !reflect.DeepEqual(canonBindings(gotB, vars), canonBindings(want, vars)) {
				t.Fatalf("d=%d query %v: got %d solutions, want %d", d, q, len(got), len(want))
			}
		}
	}
}

func TestRepeatedVariableRejected(t *testing.T) {
	idx := New([]Tuple{{0, 1, 2, 3}}, 4, 5)
	_, err := idx.Evaluate(Query{{V("x"), V("x"), C(2), C(3)}}, 0)
	if err == nil {
		t.Fatal("repeated variable within a pattern was accepted")
	}
}

func TestArityMismatchRejected(t *testing.T) {
	idx := New([]Tuple{{0, 1, 2, 3}}, 4, 5)
	_, err := idx.Evaluate(Query{{V("x"), C(1), C(2)}}, 0)
	if err == nil {
		t.Fatal("wrong-arity pattern was accepted")
	}
}

func TestOrdersCountMatchesCover(t *testing.T) {
	// d=3 backward-only needs 2 cycles; d=4 and 5 stay far below d!.
	for d, maxOrders := range map[int]int{3: 2, 4: 4, 5: 9} {
		idx := New(randomTuples(rand.New(rand.NewSource(1)), 50, d, 6), d, 6)
		if idx.Orders() > maxOrders {
			t.Errorf("d=%d: %d orders, want <= %d", d, idx.Orders(), maxOrders)
		}
	}
}

func TestLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := New(randomTuples(rng, 200, 4, 4), 4, 4)
	got, err := idx.Evaluate(Query{{V("a"), V("b"), V("c"), V("d")}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("limit 5: got %d", len(got))
	}
}
