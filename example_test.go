package wcoring_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"

	wcoring "repro"
	"repro/internal/baseline/btree"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/testutil"
)

func newExampleStore() *wcoring.Store {
	store, err := wcoring.NewStore([]wcoring.StringTriple{
		{S: "Bohr", P: "adv", O: "Thomson"},
		{S: "Thomson", P: "adv", O: "Strutt"},
		{S: "Wheeler", P: "adv", O: "Bohr"},
		{S: "Thorne", P: "adv", O: "Wheeler"},
		{S: "Nobel", P: "nom", O: "Bohr"},
		{S: "Nobel", P: "nom", O: "Thomson"},
		{S: "Nobel", P: "nom", O: "Thorne"},
		{S: "Nobel", P: "nom", O: "Wheeler"},
		{S: "Nobel", P: "nom", O: "Strutt"},
		{S: "Nobel", P: "win", O: "Bohr"},
		{S: "Nobel", P: "win", O: "Thomson"},
		{S: "Nobel", P: "win", O: "Thorne"},
		{S: "Nobel", P: "win", O: "Strutt"},
	}, wcoring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return store
}

// printSorted prints one line per solution, the variables in name order,
// the lines sorted: the solution multiset, whatever order the engine
// produced it in.
func printSorted(sols []map[string]string) {
	lines := make([]string, len(sols))
	for i, s := range sols {
		vars := make([]string, 0, len(s))
		for v := range s {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			lines[i] += fmt.Sprintf(" ?%s=%s", v, s[v])
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(" " + l)
	}
}

// Build a ring-indexed store from string triples and run
// worst-case-optimal joins through the public API. Strings starting with
// '?' are variables.
func Example_quickstart() {
	store, err := wcoring.NewStore([]wcoring.StringTriple{
		{S: "alice", P: "follows", O: "bob"},
		{S: "bob", P: "follows", O: "carol"},
		{S: "alice", P: "follows", O: "carol"},
		{S: "carol", P: "follows", O: "dave"},
		{S: "alice", P: "livesIn", O: "paris"},
		{S: "bob", P: "livesIn", O: "paris"},
		{S: "carol", P: "livesIn", O: "tokyo"},
	}, wcoring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d triples in %d bytes (the ring replaces the data)\n", store.Len(), store.SizeBytes())

	for _, qc := range []struct {
		name string
		q    []wcoring.PatternString
	}{
		{"followers of carol", []wcoring.PatternString{
			{S: "?who", P: "follows", O: "carol"},
		}},
		{"friend triangles", []wcoring.PatternString{
			{S: "?a", P: "follows", O: "?b"},
			{S: "?b", P: "follows", O: "?c"},
			{S: "?a", P: "follows", O: "?c"},
		}},
		{"co-located follows", []wcoring.PatternString{
			{S: "?a", P: "follows", O: "?b"},
			{S: "?a", P: "livesIn", O: "?city"},
			{S: "?b", P: "livesIn", O: "?city"},
		}},
	} {
		sols, err := store.Select(qc.q, wcoring.SelectOptions{})
		if err != nil {
			log.Fatalf("%s: %v", qc.name, err)
		}
		fmt.Printf("%s: %d solution(s)\n", qc.name, len(sols))
		printSorted(sols)
	}
	// Output:
	// indexed 7 triples in 762 bytes (the ring replaces the data)
	// followers of carol: 2 solution(s)
	//   ?who=alice
	//   ?who=bob
	// friend triangles: 1 solution(s)
	//   ?a=alice ?b=bob ?c=carol
	// co-located follows: 1 solution(s)
	//   ?a=alice ?b=bob ?city=paris
}

// The paper's running example: the bended BWT of Figure 6 built over the
// graph of Figure 3, the triples recovered from the index alone through
// LF-cycles (Lemma 3.3), and the Figure 4 query — prize winners advised by
// nominees — at the string and the identifier level.
func Example_nobel() {
	// Identifiers are 0-based and unshifted; see the paper's Section 4.1
	// for the split representation.
	g := testutil.PaperGraph()
	r := ring.New(g, ring.Options{})
	fmt.Println("bended BWT zones (Figure 6):")
	for _, z := range []ring.Zone{ring.ZoneSPO, ring.ZonePOS, ring.ZoneOSP} {
		col := r.Column(z)
		fmt.Printf("  %s:", z)
		for i := 0; i < col.Len(); i++ {
			fmt.Printf(" %d", col.Access(i))
		}
		fmt.Println()
	}
	all := r.Triples()
	same := len(all) == g.Len()
	for i, t := range g.Triples() {
		same = same && all[i] == t
	}
	fmt.Printf("triples recovered from the index: %d, equal to the input: %v\n", len(all), same)

	store := newExampleStore()
	sols, err := store.Select([]wcoring.PatternString{
		{S: "?x", P: "win", O: "?y"},
		{S: "?x", P: "nom", O: "?z"},
		{S: "?z", P: "adv", O: "?y"},
	}, wcoring.SelectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 4, ?x win ?y . ?x nom ?z . ?z adv ?y:")
	printSorted(sols)

	ids, err := wcoring.Evaluate(r, graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
		graph.TP(graph.Var("z"), graph.Const(0), graph.Var("y")),
	}, wcoring.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("the same query over identifiers:")
	for _, k := range graph.CanonicalizeBindings(ids, []string{"x", "y", "z"}) {
		fmt.Println("  " + k)
	}
	// Output:
	// bended BWT zones (Figure 6):
	//   spo: 2 1 4 0 0 1 2 3 4 0 1 2 3
	//   pos: 4 2 0 3 5 5 5 5 5 5 5 5 5
	//   osp: 0 1 2 0 1 2 0 1 2 1 2 0 1
	// triples recovered from the index: 13, equal to the input: true
	// Figure 4, ?x win ?y . ?x nom ?z . ?z adv ?y:
	//   ?x=Nobel ?y=Bohr ?z=Wheeler
	//   ?x=Nobel ?y=Strutt ?z=Thomson
	//   ?x=Nobel ?y=Thomson ?z=Bohr
	// the same query over identifiers:
	//   x=5;y=0;z=4;
	//   x=5;y=1;z=2;
	//   x=5;y=2;z=0;
}

// Cyclic analytics over a synthetic social network, where worst-case-
// optimal joins shine: the ring and the three-order B+-tree baseline
// (nested-loop joins) return the same solutions, in a fraction of the
// space.
func Example_socialNetwork() {
	const (
		follows = iota
		likes
		memberOf
	)
	// Users follow and like earlier users (hub formation) and join a few
	// groups.
	rng := rand.New(rand.NewSource(2024))
	const edges, users = 20000, 2000
	hub := func() graph.ID { return graph.ID(rng.Intn(rng.Intn(users-1) + 1)) }
	var ts []graph.Triple
	for len(ts) < edges*7/10 {
		ts = append(ts, graph.Triple{S: graph.ID(rng.Intn(users)), P: follows, O: hub()})
	}
	for len(ts) < edges*9/10 {
		ts = append(ts, graph.Triple{S: graph.ID(rng.Intn(users)), P: likes, O: hub()})
	}
	for len(ts) < edges {
		ts = append(ts, graph.Triple{S: graph.ID(rng.Intn(users)), P: memberOf, O: graph.ID(users + rng.Intn(users/50))})
	}
	g := graph.New(ts)

	r := ring.New(g, ring.Options{})
	idx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return r.NewPatternState(tp) })
	jena := btree.NewJena(g)
	fmt.Printf("%d edges: ring %d bytes, B+-trees %d bytes\n", g.Len(), r.SizeBytes(), jena.SizeBytes())

	v := graph.Var
	c := func(p graph.ID) graph.Term { return graph.Const(p) }
	for _, qc := range []struct {
		name string
		q    graph.Pattern
	}{
		{"follow triangles", graph.Pattern{
			graph.TP(v("a"), c(follows), v("b")),
			graph.TP(v("b"), c(follows), v("c")),
			graph.TP(v("a"), c(follows), v("c")),
		}},
		{"mutual follows", graph.Pattern{
			graph.TP(v("a"), c(follows), v("b")),
			graph.TP(v("b"), c(follows), v("a")),
		}},
		{"friends in the same group", graph.Pattern{
			graph.TP(v("a"), c(follows), v("b")),
			graph.TP(v("a"), c(memberOf), v("g")),
			graph.TP(v("b"), c(memberOf), v("g")),
		}},
		{"likes shared with a followee", graph.Pattern{
			graph.TP(v("a"), c(follows), v("b")),
			graph.TP(v("b"), c(likes), v("x")),
			graph.TP(v("a"), c(likes), v("x")),
		}},
	} {
		res, err := ltj.Evaluate(idx, qc.q, ltj.Options{})
		if err != nil {
			log.Fatal(err)
		}
		jres, err := jena.Evaluate(qc.q, ltj.Options{})
		if err != nil {
			log.Fatal(err)
		}
		agree := testutil.SameSolutions(res.Solutions, jres.Solutions, qc.q.Vars()) == ""
		fmt.Printf("%s: %d solutions, B+-trees agree: %v\n", qc.name, len(res.Solutions), agree)
	}
	// Output:
	// 19919 edges: ring 91852 bytes, B+-trees 738012 bytes
	// follow triangles: 832 solutions, B+-trees agree: true
	// mutual follows: 69 solutions, B+-trees agree: true
	// friends in the same group: 349 solutions, B+-trees agree: true
	// likes shared with a followee: 64 solutions, B+-trees agree: true
}

// A Table 2-style workload over a data-curation provenance graph:
// constants in any position and variable predicates, the C-Ring's space
// trade-off, and the build-once, load-later cycle of a read-only index.
func Example_provenance() {
	var triples []wcoring.StringTriple
	add := func(s, p, o string) { triples = append(triples, wcoring.StringTriple{S: s, P: p, O: o}) }
	for i := 0; i < 400; i++ {
		ds := fmt.Sprintf("dataset%03d", i)
		add(ds, "derivedFrom", fmt.Sprintf("source%02d", i%37))
		add(ds, "editedBy", fmt.Sprintf("curator%02d", i%11))
		if i%3 == 0 {
			add(ds, "approvedBy", fmt.Sprintf("reviewer%d", i%5))
		}
		if i > 0 && i%7 == 0 {
			add(ds, "derivedFrom", fmt.Sprintf("dataset%03d", i-1))
		}
	}
	for c := 0; c < 11; c++ {
		add(fmt.Sprintf("curator%02d", c), "worksFor", fmt.Sprintf("lab%d", c%3))
	}

	plain, err := wcoring.NewStore(triples, wcoring.Options{})
	if err != nil {
		log.Fatal(err)
	}
	compressed, err := wcoring.NewStore(triples, wcoring.Options{Compress: true, RRRBlock: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d triples: ring %d bytes, C-Ring %d bytes\n", plain.Len(), plain.SizeBytes(), compressed.SizeBytes())

	var buf bytes.Buffer
	if _, err := plain.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized store: %d bytes\n", buf.Len())
	store, err := wcoring.ReadStore(&buf)
	if err != nil {
		log.Fatal(err)
	}

	about, err := store.Select([]wcoring.PatternString{{S: "dataset042", P: "?rel", O: "?what"}}, wcoring.SelectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("everything about dataset042:")
	printSorted(about)
	for _, qc := range []struct {
		name string
		q    []wcoring.PatternString
	}{
		{"who edited what was derived from source05", []wcoring.PatternString{
			{S: "?ds", P: "derivedFrom", O: "source05"},
			{S: "?ds", P: "editedBy", O: "?who"},
		}},
		{"provenance chains of approved datasets", []wcoring.PatternString{
			{S: "?ds", P: "approvedBy", O: "?rev"},
			{S: "?ds", P: "derivedFrom", O: "?src"},
			{S: "?ds", P: "editedBy", O: "?cur"},
			{S: "?cur", P: "worksFor", O: "?lab"},
		}},
		{"any relation into lab0's curators", []wcoring.PatternString{
			{S: "?cur", P: "worksFor", O: "lab0"},
			{S: "?ds", P: "?rel", O: "?cur"},
		}},
	} {
		sols, err := store.Select(qc.q, wcoring.SelectOptions{QueryOptions: wcoring.QueryOptions{Limit: 1000}})
		if err != nil {
			log.Fatalf("%s: %v", qc.name, err)
		}
		fmt.Printf("%s: %d solutions\n", qc.name, len(sols))
	}
	// Output:
	// 1002 triples: ring 5920 bytes, C-Ring 5616 bytes
	// serialized store: 11064 bytes
	// everything about dataset042:
	//   ?rel=approvedBy ?what=reviewer2
	//   ?rel=derivedFrom ?what=dataset041
	//   ?rel=derivedFrom ?what=source05
	//   ?rel=editedBy ?what=curator09
	// who edited what was derived from source05: 11 solutions
	// provenance chains of approved datasets: 153 solutions
	// any relation into lab0's curators: 146 solutions
}

// Regular path queries follow SPARQL property-path syntax.
func ExampleStore_Reach() {
	store := newExampleStore()
	descendants, err := store.Reach("Thorne", "adv+")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(descendants)
	// Output:
	// [Bohr Strutt Thomson Wheeler]
}

// Select layers projection, DISTINCT and ordering over the wco join.
func ExampleStore_Select() {
	store := newExampleStore()
	sols, err := store.Select([]wcoring.PatternString{
		{S: "Nobel", P: "?how", O: "?who"},
	}, wcoring.SelectOptions{
		Project:  []string{"who"},
		Distinct: true,
		OrderBy:  []string{"who"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range sols {
		fmt.Println(s["who"])
	}
	// Output:
	// Bohr
	// Strutt
	// Thomson
	// Thorne
	// Wheeler
}
