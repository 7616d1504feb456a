// Command ringquery memory-maps a serialized ring index (built by
// ringbuild) and evaluates basic graph patterns. A query is given as one
// or more triple patterns, semicolon-separated; components starting with
// '?' are variables:
//
//	ringquery -index graph.ring -query '?x winner ?y ; ?x nominee ?z ; ?z advisor ?y'
//
// Without -query, patterns are read from stdin, one query per line.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	wcoring "repro"
	"repro/internal/mman"
	"repro/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringquery: ")

	index := flag.String("index", "", "index file built by ringbuild")
	query := flag.String("query", "", "query: 's p o' patterns, ';'-separated, '?x' variables")
	limit := flag.Int("limit", 1000, "max solutions (0 = unlimited)")
	timeout := flag.Duration("timeout", 10*time.Minute, "evaluation timeout (0 = none)")
	parallel := flag.Int("parallel", 0,
		"intra-query worker goroutines: 0 = sequential (deterministic order), -1 = one per CPU; >1 returns the same solutions in nondeterministic order")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *index == "" {
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	reg, err := mman.Map(*index)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Release()
	store, err := wcoring.ViewStore(reg.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded index: %d triples, %.2f bytes/triple\n",
		store.Len(), float64(store.SizeBytes())/float64(store.Len()))

	if *parallel < 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	opt := wcoring.QueryOptions{Limit: *limit, Timeout: *timeout, Parallelism: *parallel}
	if *query != "" {
		runQuery(store, *query, opt)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		runQuery(store, line, opt)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func runQuery(store *wcoring.Store, raw string, opt wcoring.QueryOptions) {
	patterns, err := parseQuery(raw)
	if err != nil {
		log.Printf("bad query %q: %v", raw, err)
		return
	}
	start := time.Now()
	sols, err := store.Select(patterns, wcoring.SelectOptions{QueryOptions: opt})
	elapsed := time.Since(start)
	timedOut := errors.Is(err, wcoring.ErrTimeout)
	if err != nil && !timedOut {
		log.Printf("query failed: %v", err)
		return
	}
	status := ""
	if timedOut {
		status = " (timed out)"
	}
	fmt.Printf("%d solutions in %v%s\n", len(sols), elapsed.Round(time.Microsecond), status)
	for _, sol := range sols {
		keys := make([]string, 0, len(sol))
		for k := range sol {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("?%s=%s", k, sol[k])
		}
		fmt.Println("  " + strings.Join(parts, " "))
	}
}

func parseQuery(raw string) ([]wcoring.PatternString, error) {
	var out []wcoring.PatternString
	for _, part := range strings.Split(raw, ";") {
		fields := strings.Fields(part)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("pattern %q: want 3 components, got %d", part, len(fields))
		}
		out = append(out, wcoring.PatternString{S: fields[0], P: fields[1], O: fields[2]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty query")
	}
	return out, nil
}
