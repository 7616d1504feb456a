package ltj

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
)

// orderFor runs the order computation for a query over the paper graph.
func orderFor(t *testing.T, q graph.Pattern, opt Options) []string {
	t.Helper()
	g := testutil.PaperGraph()
	r := ring.New(g, ring.Options{})
	e := &evaluator{opt: opt}
	for _, tp := range q {
		e.pats = append(e.pats, patternEntry{tp: tp, it: r.NewPatternState(tp)})
	}
	order, err := e.chooseOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func TestLonelyVariablesComeLast(t *testing.T) {
	// x joins the two patterns; y and z are lonely.
	q := graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
		graph.TP(graph.Var("x"), graph.Const(1), graph.Var("z")),
	}
	order := orderFor(t, q, Options{})
	if order[0] != "x" {
		t.Fatalf("order = %v, want x first", order)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 variables", order)
	}
}

func TestCardinalityOrderPrefersSelective(t *testing.T) {
	// adv (0) has 4 triples, nom (1) has 5: the variable whose cheapest
	// pattern is smaller is eliminated first.
	q := graph.Pattern{
		graph.TP(graph.Var("a"), graph.Const(0), graph.Var("shared")),
		graph.TP(graph.Var("b"), graph.Const(1), graph.Var("shared")),
		graph.TP(graph.Var("a"), graph.Const(2), graph.Var("b")),
	}
	order := orderFor(t, q, Options{})
	// All three variables are join variables; 'a' and 'shared' touch the
	// 4-triple adv pattern, so one of them must lead.
	if order[0] != "a" && order[0] != "shared" {
		t.Fatalf("order = %v, want a or shared first (smallest c_min)", order)
	}
}

func TestConnectivityPreference(t *testing.T) {
	// Two components: (a,b) over adv and (c,d) over nom; after picking from
	// one component, the next variable should stay in it when possible.
	q := graph.Pattern{
		graph.TP(graph.Var("a"), graph.Const(0), graph.Var("b")),
		graph.TP(graph.Var("b"), graph.Const(2), graph.Var("a")),
		graph.TP(graph.Var("c"), graph.Const(1), graph.Var("d")),
		graph.TP(graph.Var("d"), graph.Const(2), graph.Var("c")),
	}
	order := orderFor(t, q, Options{})
	pos := map[string]int{}
	for i, v := range order {
		pos[v] = i
	}
	firstComponentFirst := pos["a"] < pos["c"] == (order[0] == "a" || order[0] == "b")
	// The two variables of the starting component must be adjacent in the
	// order (connectivity keeps components together).
	var gap int
	if order[0] == "a" || order[0] == "b" {
		gap = pos["a"] - pos["b"]
	} else {
		gap = pos["c"] - pos["d"]
	}
	if gap != 1 && gap != -1 {
		t.Fatalf("order = %v: starting component not contiguous", order)
	}
	_ = firstComponentFirst
}

func TestLonelyChainDirections(t *testing.T) {
	lonely := map[string]bool{"y": true, "z": true, "w": true}
	cases := []struct {
		name string
		tp   graph.TriplePattern
		want []string
	}{
		// Constant subject: run = {S}; chain goes backward O then P.
		{"s-const", graph.TP(graph.Const(1), graph.Var("z"), graph.Var("y")), []string{"y", "z"}},
		// Constant predicate: run = {P}; chain S then O.
		{"p-const", graph.TP(graph.Var("y"), graph.Const(1), graph.Var("z")), []string{"y", "z"}},
		// Constant object: run = {O}; chain P then S.
		{"o-const", graph.TP(graph.Var("z"), graph.Var("y"), graph.Const(1)), []string{"y", "z"}},
		// Two constants (s,p): only the object is lonely.
		{"sp-const", graph.TP(graph.Const(1), graph.Const(0), graph.Var("y")), []string{"y"}},
		// All variables, all lonely: subject first (bound by leap), then
		// backward o, p.
		{"all-vars", graph.TP(graph.Var("y"), graph.Var("z"), graph.Var("w")), []string{"y", "w", "z"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := lonelyChain(c.tp, lonely)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("lonelyChain(%v) = %v, want %v", c.tp, got, c.want)
			}
		})
	}
}

func TestLonelyChainSkipsJoinVariables(t *testing.T) {
	// x is a join variable (not lonely): it belongs to the run, so only y
	// is chained, backward-adjacent to the run {P,O}... here run = {S
	// const, x at P}, lonely y at O.
	lonely := map[string]bool{"y": true}
	tp := graph.TP(graph.Const(1), graph.Var("x"), graph.Var("y"))
	got := lonelyChain(tp, lonely)
	if !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("lonelyChain = %v, want [y]", got)
	}
}

func TestChooseOrderChecksExplicit(t *testing.T) {
	g := testutil.PaperGraph()
	r := ring.New(g, ring.Options{})
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y"))}
	e := &evaluator{opt: Options{Order: []string{"x", "x"}}}
	for _, tp := range q {
		e.pats = append(e.pats, patternEntry{tp: tp, it: r.NewPatternState(tp)})
	}
	if _, err := e.chooseOrder(q); err == nil {
		t.Fatal("duplicate variable in explicit order accepted")
	}
}
