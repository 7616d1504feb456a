// Command ringbench is the repository's one benchmark: four seeded
// workloads over the whole stack (ltj/ring, wcoring.Store, the HTTP server
// on a real socket, the durable store), every answer verified, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
//
//	ringbench -workload wgpb-cold -seed 1 -seconds 15 -trace 0
//	ringbench -workload serve-socket -seed 1 -seconds 15 -trace 1 -md
//	ringbench compare baseline/a.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; BENCHMARK.json at the repository
// root names the metrics it carries. README.md in this directory explains
// every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "draws what the clients do: replay order, request mix, writes")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the measured phase runs (wgpb-*: the whole passes this buys, see README)")
	fs.IntVar(&trace, "trace", 0, "1 records spans around every call into a layer, writes trace.json and reports the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "20k-triple scale for tests")
	fs.BoolVar(&cfg.md, "md", false, "with -trace 1, also print the attribution table in markdown")
	fs.StringVar(&cfg.out, "out", "", "append the run record (one JSON line) to this file")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "ringbench"), "scratch directory: the live data directory and trace.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace is 0 or 1")
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg.trace = trace == 1
	cfg.sc = fullScale
	if cfg.smoke {
		cfg.sc = smokeScale
	}
	cfg.log = os.Stderr
	rec, err := run(cfg)
	if err != nil {
		return err
	}
	return rec.emit(os.Stdout, cfg)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// run executes one workload and returns its record.
func run(cfg config) (*record, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown -workload %q (have: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	// Load is sized for the host from this one process: never more
	// scheduler threads than processors, and never more than two.
	procs := runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	defer runtime.GOMAXPROCS(procs)

	h := newHarness(cfg)
	if err := w.run(h); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	h.set("fail_ratio", float64(h.failed)/float64(max(h.attempted, 1)), "ratio")
	if h.tr != nil {
		h.harnessMetrics()
		path := filepath.Join(cfg.dir, "trace.json")
		if err := h.tr.write(path); err != nil {
			return nil, err
		}
		h.logf("%d spans written to %s", len(h.tr.spans), path)
	}
	return newRecord(h), nil
}

// record is one run as it is stored: the baseline files and the files
// `ringbench compare` reads hold one record per line.
type record struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	Smoke    bool               `json:"smoke,omitempty"`
	Host     hostInfo           `json:"host"`
	Commit   string             `json:"commit"`
	Flush    string             `json:"flush_policy"`
	Sizes    map[string]float64 `json:"sizes"`
	Samples  map[string]int     `json:"samples"`
	Correct  bool               `json:"correct"`
	Invalid  string             `json:"invalid,omitempty"`
	Attempt  int                `json:"attempted"`
	Failed   int                `json:"failed"`
	Notes    []string           `json:"notes,omitempty"`
	Metrics  map[string]metric  `json:"metrics"`
	names    []string
}

type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	OSArch     string `json:"os_arch"`
}

func newRecord(h *harness) *record {
	host, _ := os.Hostname()
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	trace := 0
	if h.cfg.trace {
		trace = 1
	}
	return &record{
		Schema: "ringbench/1", Workload: h.cfg.workload, Seed: h.cfg.seed,
		Seconds: h.cfg.seconds, Trace: trace, Smoke: h.cfg.smoke,
		Host: hostInfo{
			Hostname: host, CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOGC: gogc, OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Commit: commit(), Flush: "sync:true (200 after fsync)",
		Sizes: h.sizes, Samples: h.samples,
		Correct: h.failed == 0 && h.invalid == "", Invalid: h.invalid, Attempt: h.attempted, Failed: h.failed,
		Notes: h.notes, Metrics: h.metrics, names: h.names,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, when the build saw a
// repository (the driver's checkouts are bare trees).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// emit prints every metric by name with its unit, appends the record to
// -out, and ends standard output with the line the driver reads: the
// declared end-to-end metrics of an untraced run, the declared per-layer
// metrics of a traced one.
func (r *record) emit(w io.Writer, cfg config) error {
	fmt.Fprintf(w, "# ringbench %s seed=%d seconds=%g trace=%d commit=%s\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Commit)
	fmt.Fprintf(w, "# host %s, %q, num_cpu=%d GOMAXPROCS=%d %s GOGC=%s\n", r.Host.Hostname, r.Host.CPU, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GOGC)
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Fprintf(w, "size.%-39s %16.6f\n", k, r.Sizes[k])
	}
	for _, n := range r.names {
		fmt.Fprintf(w, "%-44s %16.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "samples.%-36s %16d\n", k, r.Samples[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if r.Invalid != "" {
		fmt.Fprintf(w, "invalid: %s\n", r.Invalid)
	}
	if cfg.md && cfg.trace {
		fmt.Fprint(w, attributionMarkdown(r))
	}
	if cfg.out != "" {
		f, err := os.OpenFile(cfg.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		line, err := json.Marshal(r)
		if err == nil {
			_, err = f.Write(append(line, '\n'))
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempt, r.Failed, map[string]metric{}}
	for _, n := range declared {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("%s did not measure declared metric %s", r.Workload, n)
		}
		last.Metrics[n] = m
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// attributionMarkdown is the layer attribution table of a traced run, in
// the form EXPERIMENTS.md can adopt: each rung of the ladder, its self time,
// and its share of the top rung.
func attributionMarkdown(r *record) string {
	rows := []struct{ layer, metric string }{
		{"ltj (engine)", "ltj.evaluate_us"},
		{"query.Select", "query.select_self_us"},
		{"wcoring compile", "wcoring.compile_us"},
		{"wcoring decode", "wcoring.decode_self_us"},
		{"server handler (parse, admission, JSON)", "server.handler_self_us"},
		{"socket (loopback, net/http)", "server.socket_self_us"},
	}
	total := 0.0
	for _, row := range rows {
		total += r.Metrics[row.metric].Value
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n| layer (%s, seed %d) | self time (µs) | share |\n|---|---:|---:|\n", r.Workload, r.Seed)
	for _, row := range rows {
		m, ok := r.Metrics[row.metric]
		if !ok {
			continue // a rung this workload does not have
		}
		fmt.Fprintf(&b, "| %s | %.1f | %.1f%% |\n", row.layer, m.Value, 100*m.Value/total)
	}
	fmt.Fprintf(&b, "| **top rung** | **%.1f** | 100%% |\n\n", total)
	return b.String()
}
