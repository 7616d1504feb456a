// Command benchtables regenerates the paper's evaluation tables and
// figures over the synthetic Wikidata stand-in, printing each measured
// row next to the value the paper reports (where one exists) so the
// reproduction can be judged at a glance. See EXPERIMENTS.md for the
// recorded comparison.
//
// Usage:
//
//	benchtables -table 1   [-n 1000000]   # Table 1: space + avg WGPB time
//	benchtables -table fig8 [-n 1000000]  # Figure 8: per-shape medians
//	benchtables -table 2   [-n 2000000]   # Table 2: real-world mix
//	benchtables -table 3                  # Table 3: order counts
//	benchtables -table space [-n 1000000] # §5.2.1 space/retrieval detail
//	benchtables -table parallel [-levels 1,2] # intra-query parallel LTJ sweep
//	benchtables -table all
//
// The -parallel flag sets the intra-query worker count for tables 1, 2
// and fig8 (0 = sequential, the paper's protocol); -table parallel
// instead sweeps parallelism levels explicitly, per shape as well as for
// the whole mix.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/orders"
	"repro/internal/prof"
	"repro/internal/ring"
	"repro/internal/wgpb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")

	table := flag.String("table", "all", "which table: 1, 2, 3, fig8, space, parallel, all")
	n := flag.Int("n", 300_000, "graph size in triples for tables 1/2/fig8/space/parallel")
	perShape := flag.Int("pershape", 10, "WGPB queries per shape")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query timeout")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "intra-query workers for tables 1/2/fig8 (0 = sequential)")
	levels := flag.String("levels", "1,2,4,8", "parallelism levels for -table parallel")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	switch *table {
	case "1":
		table1(*n, *perShape, *timeout, *seed, *parallel)
	case "2":
		table2(*n, *timeout, *seed, *parallel)
	case "3":
		table3()
	case "fig8":
		figure8(*n, *perShape, *timeout, *seed, *parallel)
	case "space":
		spaceDetail(*n, *seed)
	case "parallel":
		parallelTable(*n, *perShape, *timeout, *seed, parseLevels(*levels))
	case "all":
		table1(*n, *perShape, *timeout, *seed, *parallel)
		figure8(*n, *perShape, *timeout, *seed, *parallel)
		table2(*n, *timeout, *seed, *parallel)
		table3()
		spaceDetail(*n, *seed)
		parallelTable(*n, *perShape, *timeout, *seed, parseLevels(*levels))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseLevels(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			log.Fatalf("bad -levels value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		log.Fatal("-levels is empty")
	}
	return out
}

func makeGraph(n int, seed int64) *graph.Graph {
	cfg := wgpb.DefaultGraphConfig(n)
	cfg.Seed = seed
	fmt.Printf("generating WGPB stand-in graph: %d triples, %d nodes, %d predicates...\n",
		cfg.Triples, cfg.Nodes, cfg.Predicates)
	return wgpb.Generate(cfg)
}

// paperTable1 holds the paper's reported values (81.4M-triple Wikidata
// subgraph) for reference columns.
var paperTable1 = map[string][2]string{
	"Ring":        {"12.70", "31"},
	"C-Ring":      {"6.68", "97"},
	"EmptyHeaded": {"1809.84", "118"},
	"Qdag":        {"8.86", "14873"},
	"Jena":        {"72.32", "127"},
	"Jena LTJ":    {"144.64", "59"},
	"RDF-3X":      {"107.65", "182"},
}

func table1(n, perShape int, timeout time.Duration, seed int64, parallel int) {
	g := makeGraph(n, seed)
	w := wgpb.NewWorkload(g, seed+1)
	var queries []graph.Pattern
	for i := range wgpb.Shapes {
		queries = append(queries, w.Queries(&wgpb.Shapes[i], perShape)...)
	}
	fmt.Printf("\nTable 1 — index space (bytes/triple) and avg WGPB query time (%d queries)\n", len(queries))
	fmt.Printf("%-14s %14s %14s %12s %14s %14s\n",
		"System", "space B/t", "time ms", "timeouts", "paper B/t", "paper ms")
	opt := ltj.Options{Limit: 1000, Timeout: timeout, Parallelism: parallel}
	for _, sys := range bench.Build(g, bench.AllSystems()) {
		stats, err := bench.Run(sys, queries, opt)
		if err != nil {
			log.Fatal(err)
		}
		ref := paperTable1[sys.Name()]
		fmt.Printf("%-14s %14.2f %14.2f %12d %14s %14s\n",
			sys.Name(), bench.BytesPerTriple(sys, g.Len()),
			float64(stats.Mean().Microseconds())/1000, stats.Timeouts(), ref[0], ref[1])
	}
	// Graphflow could not index the paper's graph at all: its adjacency
	// arrays need Ω(p·v) space. Report the same estimate for our graph.
	gfBytes := float64(g.NumP()) * float64(g.NumSO()) * 4
	fmt.Printf("%-14s %13.0f+ %14s %12s %14s %14s   (could not index; Ω(p·v) estimate, as in the paper)\n",
		"Graphflow", gfBytes/float64(g.Len()), "—", "—", ">8966.90", "—")
	fmt.Println("(paper columns: 81.4M-triple Wikidata subgraph on the authors' hardware; shape, not absolutes, is the target)")
}

func figure8(n, perShape int, timeout time.Duration, seed int64, parallel int) {
	g := makeGraph(n, seed)
	w := wgpb.NewWorkload(g, seed+2)
	systems := bench.Build(g, bench.AllSystems())
	fmt.Printf("\nFigure 8 — per-shape query times, median [p25, p75] in ms\n")
	fmt.Printf("%-6s", "shape")
	for _, sys := range systems {
		fmt.Printf(" %22s", sys.Name())
	}
	fmt.Println()
	opt := ltj.Options{Limit: 1000, Timeout: timeout, Parallelism: parallel}
	for i := range wgpb.Shapes {
		s := &wgpb.Shapes[i]
		queries := w.Queries(s, perShape)
		fmt.Printf("%-6s", s.Name)
		for _, sys := range systems {
			stats, err := bench.Run(sys, queries, opt)
			if err != nil {
				log.Fatal(err)
			}
			if stats.UnsupportedCount() == len(queries) {
				fmt.Printf(" %22s", "n/a")
				continue
			}
			fmt.Printf(" %8.1f [%5.1f,%6.1f]",
				ms(stats.Median()), ms(stats.Percentile(25)), ms(stats.Percentile(75)))
		}
		fmt.Println()
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

var paperTable2 = map[string][4]string{
	"Ring":     {"13.86", "3920", "21", "5"},
	"Jena":     {"95.83", "11513", "35", "19"},
	"Jena LTJ": {"168.84", "1939", "162", "1"},
	"RDF-3X":   {"85.73", "8239", "126", "13"},
}

func table2(n int, timeout time.Duration, seed int64, parallel int) {
	g := makeGraph(n, seed)
	w := wgpb.NewWorkload(g, seed+3)
	var queries []graph.Pattern
	for i := 0; i < 200; i++ {
		queries = append(queries, w.RealWorldQuery(6))
	}
	fmt.Printf("\nTable 2 — real-world mix (%d queries): space and time statistics\n", len(queries))
	fmt.Printf("%-14s %10s %10s %10s %10s %9s | paper: B/t avg median timeouts\n",
		"System", "space B/t", "min ms", "avg ms", "median ms", "timeouts")
	opt := ltj.Options{Limit: 1000, Timeout: timeout, Parallelism: parallel}
	set := bench.SystemSet{Ring: true, Jena: true, JenaLTJ: true, RDF3X: true}
	for _, sys := range bench.Build(g, set) {
		stats, err := bench.Run(sys, queries, opt)
		if err != nil {
			log.Fatal(err)
		}
		ref := paperTable2[sys.Name()]
		fmt.Printf("%-14s %10.2f %10.3f %10.2f %10.2f %9d | %s %s %s %s\n",
			sys.Name(), bench.BytesPerTriple(sys, g.Len()),
			ms(stats.Min()), ms(stats.Mean()), ms(stats.Median()), stats.Timeouts(),
			ref[0], ref[1], ref[2], ref[3])
	}
	fmt.Println("(paper columns: full 958.8M-triple Wikidata, 1315 timeout-prone log queries; ms except B/t)")
}

// paperTable3 rows for d=2..6 (upper values where the paper gives ranges).
var paperTable3 = map[int][6]string{
	2: {"2", "2", "1", "1", "1", "1"},
	3: {"6", "6", "2", "2", "1", "1"},
	4: {"24", "12", "6", "4", "2", "2"},
	5: {"120", "30", "24", "8", "5", "5"},
	6: {"720", "60", "120", "[10,12]", "10", "7"},
}

func table3() {
	fmt.Printf("\nTable 3 — number of orders to index per class (measured | paper)\n")
	fmt.Printf("%-3s %18s %18s %18s %18s %18s %18s\n", "d", "W", "TW", "CW", "CTW", "CBW", "CBTW")
	for d := 2; d <= 6; d++ {
		fmt.Printf("%-3d", d)
		ref := paperTable3[d]
		classes := []orders.Class{orders.W, orders.TW, orders.CW, orders.CTW, orders.CBW, orders.CBTW}
		for i, c := range classes {
			budget := 0
			if d >= 6 {
				budget = 500_000
			}
			res := orders.Count(c, d, budget)
			val := fmt.Sprintf("%d", res.Upper)
			if !res.Exact {
				val = fmt.Sprintf("[%d,%d]", res.Lower, res.Upper)
			}
			fmt.Printf(" %9s|%-8s", val, ref[i])
		}
		fmt.Println()
	}
}

func spaceDetail(n int, seed int64) {
	g := makeGraph(n, seed)
	fmt.Printf("\nSection 5.2.1 — space breakdown and triple retrieval\n")
	simple := 12.0
	packed := float64(2*bitsFor(uint64(g.NumSO()))+bitsFor(uint64(g.NumP()))) / 8
	fmt.Printf("simple representation: %6.2f bytes/triple (paper: 12)\n", simple)
	fmt.Printf("packed representation: %6.2f bytes/triple (paper: 8)\n", packed)
	for _, cfg := range []struct {
		name  string
		opt   ring.Options
		paper string
	}{
		{"Ring (plain)", ring.Options{}, "12.70"},
		{"C-Ring b=16", ring.Options{Compress: true, RRRBlock: 16}, "6.68"},
		{"C-Ring b=64", ring.Options{Compress: true, RRRBlock: 64}, "5.35"},
	} {
		start := time.Now()
		r := ring.New(g, cfg.opt)
		build := time.Since(start)
		// Random-ish retrieval timing.
		const probes = 2000
		start = time.Now()
		for i := 0; i < probes; i++ {
			_ = r.Triple((i * 7919) % r.Len())
		}
		retr := time.Since(start) / probes
		fmt.Printf("%-14s %6.2f bytes/triple (paper %s); build %v (%.1fM triples/min); retrieve %v/triple\n",
			cfg.name, r.BytesPerTriple(), cfg.paper, build.Round(time.Millisecond),
			float64(r.Len())/build.Minutes()/1e6, retr)
	}
}

func bitsFor(v uint64) int {
	n := 0
	for v > 1 {
		n++
		v >>= 1
	}
	return n + 1
}

// parallelTable sweeps intra-query parallelism levels over the WGPB
// workload and prints, per system, the whole mix's mean/median/p75 per
// level with the speedup against the first level, then each shape's
// median per level with the same ratio, and whether every query returned
// the same number of solutions at every level.
func parallelTable(n, perShape int, timeout time.Duration, seed int64, levels []int) {
	g := makeGraph(n, seed)
	w := wgpb.NewWorkload(g, seed+4)
	var queries []graph.Pattern
	type span struct {
		name   string
		lo, hi int
	}
	var shapes []span
	for i := range wgpb.Shapes {
		lo := len(queries)
		queries = append(queries, w.Queries(&wgpb.Shapes[i], perShape)...)
		shapes = append(shapes, span{wgpb.Shapes[i].Name, lo, len(queries)})
	}
	opt := ltj.Options{Limit: 1000, Timeout: timeout}
	fmt.Printf("\nParallel LTJ — WGPB shape mix (%d queries), speedup vs %d worker(s) (GOMAXPROCS=%d, NumCPU=%d)\n",
		len(queries), levels[0], runtime.GOMAXPROCS(0), runtime.NumCPU())
	set := bench.SystemSet{Ring: true, CRing: true}
	for _, sys := range bench.Build(g, set) {
		sweep, err := bench.ParallelSweep(sys, queries, opt, levels)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10s %12s %12s %12s %10s %10s\n",
			"System", "workers", "mean ms", "median ms", "p75 ms", "timeouts", "speedup")
		base := sweep[0]
		sameCounts := true
		for _, s := range sweep {
			fmt.Printf("%-14s %10d %12.2f %12.2f %12.2f %10d %9.2fx\n",
				sys.Name(), s.Parallelism, ms(s.Mean()), ms(s.Median()),
				ms(s.Percentile(75)), s.Timeouts(), bench.Speedup(base, s))
			for i, q := range s.Queries {
				sameCounts = sameCounts && q.Solutions == base.Queries[i].Solutions
			}
		}
		fmt.Printf("%-14s %10s", sys.Name()+" shape", "")
		for _, s := range sweep {
			fmt.Printf(" %8s p50", fmt.Sprintf("P=%d", s.Parallelism))
		}
		fmt.Printf(" %10s\n", "speedup")
		for _, sh := range shapes {
			fmt.Printf("%-14s %10s", sh.name, "")
			var med []time.Duration
			for _, s := range sweep {
				part := &bench.RunStats{Queries: s.Queries[sh.lo:sh.hi]}
				med = append(med, part.Median())
				fmt.Printf(" %12.2f", ms(part.Median()))
			}
			fmt.Printf(" %9.2fx\n", float64(med[0])/float64(max(med[len(med)-1], 1)))
		}
		fmt.Printf("%s: solution counts identical across levels: %v\n\n", sys.Name(), sameCounts)
	}
}
