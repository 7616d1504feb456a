// Command ringlint runs the repo-specific static-analysis suite of
// internal/lint over the module: hotpath (annotated leap/rank/select
// paths must stay allocation- and dispatch-free), derivedstate (derived
// select/rank directories are never serialized and always rebuilt on
// load), truncation (uint64 header values must be range-checked before
// narrowing in deserializers), viewsafe (mmap-backed views must not
// write through their byte slices), guardedby (//ringlint:guarded-by
// fields are only touched with their mutex held), golife (every
// goroutine has a tracked termination path), refpair (region refcounts,
// cache byte accounting and admission tokens are released on every
// path), syncio (durable-path Sync/Close/Write/Rename errors are
// checked), and ctxflow (handler-reachable blocking honours request
// contexts; context.Background() only at annotated detach points).
//
// Usage:
//
//	go run ./cmd/ringlint ./...
//	go run ./cmd/ringlint -only guardedby,refpair internal/server
//	go run ./cmd/ringlint -timing ./...
//	go run ./cmd/ringlint -json ./...
//
// Arguments are package patterns: "./..." loads every package of the
// module (the CI lane), a directory path loads that single package (how
// the analyzer fixtures are exercised). With no arguments, "./..." is
// assumed. Exits 1 when any diagnostic is reported, printing one
// file:line:col: [analyzer] message line each, and 2 when -only names an
// analyzer the suite does not have. -timing appends a
// per-analyzer wall-time table (the analyzers run in parallel, so the
// lane cost is the slowest one, not the sum). -json emits a machine
// readable report {findings, timings} instead of plain lines.
//
// The tool is stdlib-only (go/ast, go/parser, go/types); the module has
// zero external dependencies and must stay that way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output shape: every finding plus the
// per-analyzer wall-clock timings of the parallel run.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Timings  []lint.Timing `json:"timings"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	timing := flag.Bool("timing", false, "print a per-analyzer wall-time table after the findings")
	asJSON := flag.Bool("json", false, "emit findings and timings as one JSON object")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ringlint [-only analyzers] [-timing] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := lint.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringlint: -only: %v\n", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringlint: %v\n", err)
		os.Exit(2)
	}

	diags, timings := lint.RunTimed(pkgs, analyzers)

	if *asJSON {
		report := jsonReport{Findings: []jsonFinding{}, Timings: timings}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "ringlint: %v\n", err)
			os.Exit(2)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "ringlint: %-14s %8.1fms  %d finding(s)\n", tm.Analyzer, tm.WallMS, tm.Findings)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ringlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
