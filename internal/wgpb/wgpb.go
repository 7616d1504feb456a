// Package wgpb provides the benchmark substrate standing in for the
// paper's Wikidata experiments: a synthetic labelled-multigraph generator
// with Wikidata-like skew, the 17 graph-pattern shapes of the Wikidata
// Graph Pattern Benchmark (WGPB, Figure 7 of the paper), instantiated by
// random walks exactly as the benchmark builds its 50 queries per shape,
// and a "real-world mix" generator reproducing the triple-pattern-type
// distribution the paper reports for its query-log benchmark (Table 2).
//
// See DESIGN.md for why this substitution preserves the experiments'
// shape: the ring's space is data-independent up to |G|, and the relative
// query times between systems are driven by the degree and predicate skew
// plus the pattern shapes, which are reproduced here.
package wgpb

import (
	"math/rand"

	"repro/internal/graph"
)

// GraphConfig parameterises the synthetic graph.
type GraphConfig struct {
	// Triples is the target edge count (the distinct count may be slightly
	// lower).
	Triples int
	// Nodes is the shared subject/object domain size. The paper's WGPB
	// graph has ~52M identifiers for 81M triples; the default generator
	// keeps a similar triples/nodes ratio.
	Nodes int
	// Predicates is the number of edge labels (2101 in WGPB); drawn with a
	// Zipf skew so a few "hub" predicates dominate, as in Wikidata.
	Predicates int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultGraphConfig returns a laptop-scale configuration with
// Wikidata-like shape parameters (ratios follow Section 5.2's statistics).
func DefaultGraphConfig(triples int) GraphConfig {
	nodes := triples * 2 / 3
	if nodes < 16 {
		nodes = 16
	}
	preds := triples / 40000
	if preds < 16 {
		preds = 16
	}
	return GraphConfig{Triples: triples, Nodes: nodes, Predicates: preds, Seed: 1}
}

// Generate builds the synthetic graph: subjects and objects follow a
// heavy-tailed (Zipf) degree distribution over a shuffled identifier
// permutation (so hubs are spread across the ID space, as dictionary
// order spreads Wikidata hubs), and predicates follow a steeper Zipf.
func Generate(cfg GraphConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	subjZ := rand.NewZipf(rng, 1.1, 8, uint64(cfg.Nodes-1))
	objZ := rand.NewZipf(rng, 1.05, 4, uint64(cfg.Nodes-1))
	predZ := rand.NewZipf(rng, 1.2, 2, uint64(cfg.Predicates-1))

	// Spread the skew across the ID space with a random permutation.
	perm := rng.Perm(cfg.Nodes)
	pperm := rng.Perm(cfg.Predicates)

	ts := make([]graph.Triple, cfg.Triples)
	for i := range ts {
		ts[i] = graph.Triple{
			S: graph.ID(perm[subjZ.Uint64()]),
			P: graph.ID(pperm[predZ.Uint64()]),
			O: graph.ID(perm[objZ.Uint64()]),
		}
	}
	return graph.NewWithDomains(ts, graph.ID(cfg.Nodes), graph.ID(cfg.Predicates))
}

// Edge is one edge of a pattern shape: a directed connection between two
// variable nodes identified by small integers.
type Edge struct {
	From, To int
}

// Shape is one of the 17 WGPB abstract patterns: variable nodes connected
// by edges whose predicates become constants at instantiation.
type Shape struct {
	Name  string
	Edges []Edge
	// Nodes is the number of variable nodes.
	Nodes int
}

// Shapes lists the 17 WGPB patterns of the paper's Figure 7. Nodes are
// numbered so that node 0 starts the instantiating random walk.
//
//   - P2-P4: directed paths of 2-4 edges.
//   - T2-T4: out-stars (a centre pointing at 2-4 leaves); Ti2-Ti4 the
//     inverse in-stars.
//   - J3, J4: mixed-direction stars of 3 and 4 edges.
//   - Tr1: acyclically oriented triangle; Tr2: directed 3-cycle.
//   - S1-S4: 4-cycles (squares) in the four direction patterns.
var Shapes = []Shape{
	{Name: "P2", Nodes: 3, Edges: []Edge{{0, 1}, {1, 2}}},
	{Name: "P3", Nodes: 4, Edges: []Edge{{0, 1}, {1, 2}, {2, 3}}},
	{Name: "P4", Nodes: 5, Edges: []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
	{Name: "T2", Nodes: 3, Edges: []Edge{{0, 1}, {0, 2}}},
	{Name: "Ti2", Nodes: 3, Edges: []Edge{{1, 0}, {2, 0}}},
	{Name: "T3", Nodes: 4, Edges: []Edge{{0, 1}, {0, 2}, {0, 3}}},
	{Name: "Ti3", Nodes: 4, Edges: []Edge{{1, 0}, {2, 0}, {3, 0}}},
	{Name: "J3", Nodes: 4, Edges: []Edge{{0, 1}, {2, 0}, {0, 3}}},
	{Name: "T4", Nodes: 5, Edges: []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}},
	{Name: "Ti4", Nodes: 5, Edges: []Edge{{1, 0}, {2, 0}, {3, 0}, {4, 0}}},
	{Name: "J4", Nodes: 5, Edges: []Edge{{0, 1}, {2, 0}, {0, 3}, {4, 0}}},
	{Name: "Tr1", Nodes: 3, Edges: []Edge{{0, 1}, {1, 2}, {0, 2}}},
	{Name: "Tr2", Nodes: 3, Edges: []Edge{{0, 1}, {1, 2}, {2, 0}}},
	{Name: "S1", Nodes: 4, Edges: []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}}},
	{Name: "S2", Nodes: 4, Edges: []Edge{{0, 1}, {1, 2}, {3, 2}, {0, 3}}},
	{Name: "S3", Nodes: 4, Edges: []Edge{{0, 1}, {2, 1}, {2, 3}, {0, 3}}},
	{Name: "S4", Nodes: 4, Edges: []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
}

// ShapeByName returns the named shape, or nil.
func ShapeByName(name string) *Shape {
	for i := range Shapes {
		if Shapes[i].Name == name {
			return &Shapes[i]
		}
	}
	return nil
}

// adjacency supports the instantiating random walks.
type adjacency struct {
	out map[graph.ID][]graph.Triple // by subject
	in  map[graph.ID][]graph.Triple // by object
}

func buildAdjacency(g *graph.Graph) *adjacency {
	a := &adjacency{out: map[graph.ID][]graph.Triple{}, in: map[graph.ID][]graph.Triple{}}
	for _, t := range g.Triples() {
		a.out[t.S] = append(a.out[t.S], t)
		a.in[t.O] = append(a.in[t.O], t)
	}
	return a
}

// Workload instantiates queries for the WGPB shapes over g.
type Workload struct {
	g    *graph.Graph
	adj  *adjacency
	rng  *rand.Rand
	hubP *graph.ID // cached most-frequent predicate
}

// NewWorkload prepares a query generator over g.
func NewWorkload(g *graph.Graph, seed int64) *Workload {
	return &Workload{g: g, adj: buildAdjacency(g), rng: rand.New(rand.NewSource(seed))}
}

// varName returns the query variable for shape node i.
func varName(i int) string { return string(rune('x'+i%3)) + suffix(i) }

func suffix(i int) string {
	if i < 3 {
		return ""
	}
	return string(rune('0' + i/3))
}

// Instantiate builds one concrete basic graph pattern for the shape: a
// random walk assigns concrete nodes to the shape's variables and takes
// the predicate of each traversed edge as the pattern's constant, which
// guarantees at least one solution (as WGPB does). It returns false if the
// walk dead-ends (the caller retries).
func (w *Workload) Instantiate(s *Shape) (graph.Pattern, bool) {
	if w.g.Len() == 0 {
		return nil, false
	}
	assign := make([]graph.ID, s.Nodes)
	assigned := make([]bool, s.Nodes)
	preds := make([]graph.ID, len(s.Edges))

	// Seed the walk at a random edge's subject.
	start := w.g.Triples()[w.rng.Intn(w.g.Len())]
	assign[0], assigned[0] = start.S, true

	for ei, e := range s.Edges {
		switch {
		case assigned[e.From] && assigned[e.To]:
			// Closing edge (cycles): a concrete edge must already exist.
			found := false
			for _, t := range w.adj.out[assign[e.From]] {
				if t.O == assign[e.To] {
					preds[ei] = t.P
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		case assigned[e.From]:
			cands := w.adj.out[assign[e.From]]
			if len(cands) == 0 {
				return nil, false
			}
			t := cands[w.rng.Intn(len(cands))]
			assign[e.To], assigned[e.To] = t.O, true
			preds[ei] = t.P
		case assigned[e.To]:
			cands := w.adj.in[assign[e.To]]
			if len(cands) == 0 {
				return nil, false
			}
			t := cands[w.rng.Intn(len(cands))]
			assign[e.From], assigned[e.From] = t.S, true
			preds[ei] = t.P
		default:
			// Shapes are connected and start at node 0, so one endpoint is
			// always assigned.
			return nil, false
		}
	}
	q := make(graph.Pattern, len(s.Edges))
	for ei, e := range s.Edges {
		q[ei] = graph.TP(graph.Var(varName(e.From)), graph.Const(preds[ei]), graph.Var(varName(e.To)))
	}
	return q, true
}

// Queries generates count instances of the shape, retrying dead-ended
// walks (up to a large bound; fewer queries may be returned on very sparse
// graphs).
func (w *Workload) Queries(s *Shape, count int) []graph.Pattern {
	var out []graph.Pattern
	for attempts := 0; len(out) < count && attempts < count*200; attempts++ {
		if q, ok := w.Instantiate(s); ok {
			out = append(out, q)
		}
	}
	return out
}

// PatternTypeDist is the paper's Table 2 triple-pattern type distribution
// (Section 5.3): fractions of (?,p,?), (?,p,o), (?,?,?), (s,?,?), (s,p,?),
// (?,?,o), (s,?,o).
var PatternTypeDist = []struct {
	Name string
	Frac float64
}{
	{"?p?", 0.515},
	{"?po", 0.383},
	{"???", 0.067},
	{"s??", 0.012},
	{"sp?", 0.012},
	{"??o", 0.011},
	{"s?o", 0.0004},
}

// RealWorldQuery generates one mixed query in the spirit of the paper's
// query-log benchmark (which selected *timeout-prone* queries): between 1
// and maxTriples triple patterns chained over shared variables, with each
// pattern's constant/variable shape drawn from PatternTypeDist and
// constants taken from a random walk so queries tend to have solutions.
// With a small probability a chain is closed into a cycle — the
// adversarial structure on which pairwise join plans blow up and wco
// evaluation pays off.
func (w *Workload) RealWorldQuery(maxTriples int) graph.Pattern {
	nt := 1 + w.rng.Intn(maxTriples)
	q := make(graph.Pattern, 0, nt)
	// Walk a chain of concrete triples sharing endpoints.
	cur := w.g.Triples()[w.rng.Intn(w.g.Len())]
	nextVar := 0
	freshVar := func() string {
		nextVar++
		return "v" + string(rune('0'+nextVar/10)) + string(rune('0'+nextVar%10))
	}
	prevObjVar := ""
	for i := 0; i < nt; i++ {
		typ := w.drawType()
		sTerm := graph.Term{}
		// Chain: the subject reuses the previous object variable when both
		// are variables, producing joins.
		sIsVar := typ[0] == '?'
		pIsVar := typ[1] == '?'
		oIsVar := typ[2] == '?'
		if sIsVar {
			if prevObjVar != "" && w.rng.Intn(2) == 0 {
				sTerm = graph.Var(prevObjVar)
			} else {
				sTerm = graph.Var(freshVar())
			}
		} else {
			sTerm = graph.Const(cur.S)
		}
		var pTerm, oTerm graph.Term
		if pIsVar {
			pTerm = graph.Var(freshVar())
		} else {
			pTerm = graph.Const(cur.P)
		}
		if oIsVar {
			v := freshVar()
			oTerm = graph.Var(v)
			prevObjVar = v
		} else {
			oTerm = graph.Const(cur.O)
			prevObjVar = ""
		}
		q = append(q, graph.TP(sTerm, pTerm, oTerm))
		// Continue the walk from the current object when possible.
		if cands := w.adj.out[cur.O]; len(cands) > 0 {
			cur = cands[w.rng.Intn(len(cands))]
		} else {
			cur = w.g.Triples()[w.rng.Intn(w.g.Len())]
		}
	}
	// Occasionally harden the query, as the paper's benchmark does by
	// selecting timeout-prone log queries: close the chain into a cycle
	// through the graph's hub predicate (huge intermediate results for
	// pairwise plans, few final solutions), or append an unselective
	// hub-predicate hop.
	if len(q) >= 2 && w.rng.Float64() < 0.25 {
		var vars []string
		seen := map[string]bool{}
		for _, tp := range q {
			for _, pos := range []graph.Position{graph.PosS, graph.PosO} {
				if t := tp.Term(pos); t.IsVar && !seen[t.Name] {
					seen[t.Name] = true
					vars = append(vars, t.Name)
				}
			}
		}
		if len(vars) >= 2 {
			a, b := vars[0], vars[len(vars)-1]
			if a != b {
				hub := w.hubPredicate()
				q = append(q,
					graph.TP(graph.Var(b), graph.Const(hub), graph.Var(freshVar())),
					graph.TP(graph.Var(a), graph.Const(hub), graph.Var(freshVar())))
				q = append(q, graph.TP(graph.Var(b), graph.Const(hub), graph.Var(a)))
			}
		}
	}
	return q
}

// SharedScanCores generates n distinct selective 2-pattern join cores —
// the query shape of a cache-miss-heavy serving workload with a small
// hot set: (s, ?p, ?b) ⋈ (?b, p, ?c), anchored on a concrete subject.
// Many concurrent clients drawing from a small core set collide on
// identical canonical patterns, which the server's result cache absorbs
// after the first copy; each core is seeded by a random walk so it has
// at least one solution. Cores are distinct by their (anchor,
// predicate) pair; fewer than n may be returned on very sparse graphs.
func (w *Workload) SharedScanCores(n int) []graph.Pattern {
	if w.g.Len() == 0 {
		return nil
	}
	type coreKey struct {
		s, p graph.ID
	}
	seen := map[coreKey]bool{}
	var out []graph.Pattern
	for attempts := 0; len(out) < n && attempts < n*200; attempts++ {
		t1 := w.g.Triples()[w.rng.Intn(w.g.Len())]
		hops := w.adj.out[t1.O]
		if len(hops) == 0 {
			continue
		}
		t2 := hops[w.rng.Intn(len(hops))]
		k := coreKey{t1.S, t2.P}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, graph.Pattern{
			graph.TP(graph.Const(t1.S), graph.Var("p"), graph.Var("b")),
			graph.TP(graph.Var("b"), graph.Const(t2.P), graph.Var("c")),
		})
	}
	return out
}

// hubPredicate returns the most frequent predicate (cached).
func (w *Workload) hubPredicate() graph.ID {
	if w.hubP == nil {
		counts := map[graph.ID]int{}
		for _, t := range w.g.Triples() {
			counts[t.P]++
		}
		best, bestC := graph.ID(0), -1
		for p, c := range counts {
			if c > bestC {
				best, bestC = p, c
			}
		}
		w.hubP = &best
	}
	return *w.hubP
}

func (w *Workload) drawType() string {
	r := w.rng.Float64()
	acc := 0.0
	for _, d := range PatternTypeDist {
		acc += d.Frac
		if r < acc {
			return typePattern(d.Name)
		}
	}
	return "?p?"
}

// typePattern normalises a distribution name to a 3-char s/p/o mask where
// '?' means variable.
func typePattern(name string) string {
	out := []byte{'s', 'p', 'o'}
	for i := 0; i < 3; i++ {
		if name[i] == '?' {
			out[i] = '?'
		}
	}
	return string(out)
}
