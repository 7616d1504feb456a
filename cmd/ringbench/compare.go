package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare needs: which metrics are
// gated, in which direction, and by how much each may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metric", path)
	}
	return &spec, nil
}

// loadRecords reads a run file: one record per line, as -out appends them.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// gate is one judged metric: its direction, the share by which it may worsen
// and, for exact metrics, that any increase at all is a regression.
type gate struct {
	name, unit string
	lower      bool
	bound      float64
	exact      bool
	only       string // the one workload that reports it ("" = all)
}

// gates are the rows compare judges on every workload: the end-to-end
// metrics BENCHMARK.json declares, with its bounds, and the two the issue
// names that the file's contract cannot declare (a declared metric is never
// 0 and is reported by every workload). index_bytes_per_triple and
// fail_ratio are counts, not timings: they have no noise to hide in.
func gates(spec *benchSpec) []gate {
	var out []gate
	for _, m := range spec.EndToEnd {
		out = append(out, gate{name: m.Name, unit: m.Unit, lower: m.Better == "lower", bound: m.Bound, exact: m.Name == "index_bytes_per_triple"})
	}
	return append(out,
		gate{name: "write_ack_p50_ms", unit: "ms", lower: true, bound: writeAckBound, only: "live-mixed"},
		gate{name: "fail_ratio", unit: "ratio", lower: true, exact: true},
	)
}

// writeAckBound is write_ack_p50_ms's bound. The issue hoped for 0.10; the
// baseline's run-to-run spread (0.11–0.17, README) is wider than that.
const writeAckBound = 0.25

// values collects one metric of one workload over the untraced runs of a
// file.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares two sets of runs of one metric. change is how much worse
// b's median is than a's, as a share of a's (negative = better). A change
// beyond the bound that also stands clear of both sides' own run-to-run
// spread is "worse"; otherwise, if either spread is wider than the bound,
// the runs cannot tell and the row is "unresolved", never "same".
func judge(a, b []float64, lowerIsBetter bool, bound float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
		if !lowerIsBetter {
			change = -change
		}
	}
	noise := max(spread(a), spread(b))
	switch {
	case change > bound && change > noise:
		return change, verdictWorse
	case noise > bound:
		return change, verdictUnresolved
	}
	return change, verdictSame
}

// judgeExact is judge for a lower-is-better count: any increase, of the
// median or of the worst run, is worse.
func judgeExact(a, b []float64) string {
	if median(b) > median(a) || slices.Max(b) > slices.Max(a) {
		return verdictWorse
	}
	return verdictSame
}

// compare prints one row per (workload, gate) and returns how many rows are
// worse. Input that cannot be judged is an error, not a pass: a run that
// was not a valid measurement, or a row one of the files has no value for
// (a workload whose run crashed leaves no record).
func compare(w io.Writer, spec *benchSpec, a, b []record) (worse int, err error) {
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if r.Invalid != "" {
				return 0, fmt.Errorf("%s seed %d is not a valid measurement: %s", r.Workload, r.Seed, r.Invalid)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] n\tb median [q1, q3] n\tchange\tbound\tverdict")
	cell := func(vs []float64) string {
		q1, q2, q3 := quartiles(vs)
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d", q2, q1, q3, len(vs))
	}
	for _, wl := range spec.Workloads {
		for _, g := range gates(spec) {
			if g.only != "" && g.only != wl.Name {
				continue
			}
			va, vb := values(a, wl.Name, g.name), values(b, wl.Name, g.name)
			if len(va) == 0 || len(vb) == 0 {
				return 0, fmt.Errorf("%s %s: %d untraced runs in the first file, %d in the second; both need one", wl.Name, g.name, len(va), len(vb))
			}
			change, verdict, bound := 0.0, "", "exact"
			if g.exact {
				verdict = judgeExact(va, vb)
				if ma := median(va); ma != 0 {
					change = (median(vb) - ma) / ma
				}
			} else {
				change, verdict = judge(va, vb, g.lower, g.bound)
				bound = fmt.Sprintf("%.0f%%", 100*g.bound)
			}
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%s\t%s\n", wl.Name, g.name, g.unit, cell(va), cell(vb), 100*change, bound, verdict)
		}
	}
	tw.Flush()
	return worse, nil
}

// compareMain is `ringbench compare <a> <b>`: exit 0 when no row is worse,
// 1 when one is, 2 on input that cannot be judged.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("ringbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "the file that stores the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ringbench compare [-bench BENCHMARK.json] <a.jsonl> <b.jsonl>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	var a, b []record
	if err == nil {
		a, err = loadRecords(fs.Arg(0))
	}
	if err == nil {
		b, err = loadRecords(fs.Arg(1))
	}
	worse := 0
	if err == nil {
		worse, err = compare(os.Stdout, spec, a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench compare:", err)
		return 2
	}
	if worse > 0 {
		fmt.Printf("%d row(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}
