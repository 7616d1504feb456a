package dynamic_test

import (
	"fmt"
	"log"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ltj"
)

// Start from a graph, keep inserting, query across the memtable and the
// static rings, then compact them into one ring.
func Example() {
	g := graph.New([]graph.Triple{{S: 0, P: 0, O: 1}, {S: 1, P: 0, O: 2}})
	ds := dynamic.FromGraph(g, dynamic.Options{MemtableThreshold: 4, MaxRings: 2})
	for i := graph.ID(2); i < 20; i++ {
		ds.Add(graph.Triple{S: i, P: 0, O: i + 1})
	}
	fmt.Printf("after 18 inserts: %d triples, %d static rings, %d buffered\n",
		ds.Len(), ds.Rings(), ds.MemtableLen())

	res, err := ds.Evaluate(graph.Pattern{
		graph.TP(graph.Var("a"), graph.Const(0), graph.Var("b")),
		graph.TP(graph.Var("b"), graph.Const(0), graph.Var("c")),
	}, ltj.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-hop chains across all components: %d\n", len(res.Solutions))

	ds.Compact()
	fmt.Printf("after Compact: %d triples in %d ring(s)\n", ds.Len(), ds.Rings())
	// Output:
	// after 18 inserts: 20 triples, 2 static rings, 2 buffered
	// 2-hop chains across all components: 19
	// after Compact: 20 triples in 1 ring(s)
}
