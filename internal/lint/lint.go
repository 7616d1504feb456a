// Package lint implements ringlint, the repo-specific static-analysis
// suite behind `make lint` (driver: cmd/ringlint). The succinct substrate
// carries invariants the Go compiler cannot check — derived select/rank
// directories must never be serialized and must be rebuilt on load, hot
// leap/rank/select paths must stay allocation- and dispatch-free, Fork()
// implementations must not share mutable state across goroutines, and
// untrusted uint64 header values must be range-checked before narrowing.
// Each analyzer encodes one of these contracts; together with the
// `ringdebug` runtime assertion layer they catch the bug class that
// surfaces as wrong query answers rather than crashes.
//
// The annotation vocabulary, written as `//ringlint:` directive comments:
//
//   - //ringlint:hotpath [allow-dispatch]
//     On a function's doc comment (or in the file header, marking every
//     function of the file): the function is a hot path and may not
//     contain interface method calls, closures, defer statements, map
//     operations, or non-self appends. allow-dispatch waives only the
//     interface-call rule, for code that is interface-generic by design
//     (the LTJ engine, the cArray accessors).
//
//   - //ringlint:derived
//     On a struct field: the field is acceleration state derived from
//     serialized fields. No Write*/write* serialization function may
//     touch it, and every Read* deserializer returning the struct must
//     (transitively) rebuild it.
//
//   - //ringlint:shared-immutable
//     On a struct field: Fork() may share this reference-typed field
//     between forks because the pointee is immutable after construction.
//
//   - //ringlint:viewed
//     On a struct field: the slice may alias a read-only memory mapping
//     (populated by a View decoder through bits.Source.Words). No code
//     may write through it — no index assignment, append, copy-into, or
//     in-place mutator call (viewsafe analyzer).
//
//   - //ringlint:allow <analyzer> [-- reason]
//     On or immediately above a line: suppress that analyzer's findings
//     for the line, documenting a reviewed exception.
//
// The concurrency/durability suite (PR 8) adds verbs for the serving
// tier:
//
//   - //ringlint:guarded-by <mu>
//     On a struct field: every read or write of the field must happen
//     while <mu> is held. <mu> is either a sibling mutex field of the
//     same struct (the lock receiver must syntactically match the access
//     base: a.mu guards a.used) or Type.field naming another struct's
//     mutex in the same package (any holder qualifies — used when a
//     registry lock guards the records it owns). Reviewed lock-free fast
//     paths carry //ringlint:allow guardedby -- reason. (guardedby)
//
//   - //ringlint:locked [<mu>]
//     On a function's doc comment: the caller holds <mu> (default: every
//     mutex guarding the receiver's annotated fields) for the duration
//     of the call. Methods whose name ends in "Locked" get this
//     implicitly — the repo-wide caller-holds-the-lock convention.
//
//   - //ringlint:goroutine-exception -- reason
//     On or immediately above a go statement: the goroutine is reviewed
//     fire-and-forget. Without it, every go statement needs a tracked
//     termination path — a WaitGroup Done, a completion send/close, or a
//     done channel the spawner closes. (golife)
//
//   - //ringlint:transfer <var> -- reason
//     Inside a function: ownership of the named acquired resource
//     (mman region, admission weight) is handed off and must not be
//     released locally. Returning the resource or storing it into a
//     field, map, or package-level variable transfers implicitly.
//     (refpair)
//
//   - //ringlint:detach -- reason
//     On or immediately above a line: this context.Background()/TODO()
//     is a reviewed detach point (e.g. the replication tail loop, which
//     outlives any caller context). (ctxflow)
//
//   - //ringlint:durable
//     In a file header: the file performs durability-critical I/O, so
//     Sync/Close/Write/Rename errors on write handles must be checked.
//     Files under internal/persist are checked without the directive.
//     (syncio)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one repo-specific check run over a type-checked package.
type Analyzer interface {
	Name() string
	Run(pkg *Package) []Diagnostic
}

// Analyzers returns the full ringlint suite.
func Analyzers() []Analyzer {
	return []Analyzer{
		hotpath{}, derivedstate{}, forksafe{}, truncation{}, viewsafe{},
		guardedby{}, golife{}, refpair{}, syncio{}, ctxflow{},
	}
}

// Timing is one analyzer's wall-clock cost over a run, reported by
// `ringlint -timing` so CI logs show which analyzer is slow.
type Timing struct {
	Analyzer string        `json:"analyzer"`
	Wall     time.Duration `json:"-"`
	WallMS   float64       `json:"wall_ms"`
	Findings int           `json:"findings"`
}

// Run applies the analyzers to every package and returns the surviving
// diagnostics sorted by position, with //ringlint:allow suppressions
// already applied.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	out, _ := RunTimed(pkgs, analyzers)
	return out
}

// RunTimed is Run with per-analyzer wall-time accounting. Analyzers run
// concurrently — each owns one goroutine and walks every package; the
// type-checked packages are read-only at this point, so the only shared
// mutable state is the result slices, merged after the join.
func RunTimed(pkgs []*Package, analyzers []Analyzer) ([]Diagnostic, []Timing) {
	allowed := make([]map[allowKey]bool, len(pkgs))
	for i, pkg := range pkgs {
		allowed[i] = allowLines(pkg)
	}
	results := make([][]Diagnostic, len(analyzers))
	timings := make([]Timing, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a Analyzer) {
			defer wg.Done()
			start := time.Now()
			var ds []Diagnostic
			for pi, pkg := range pkgs {
				for _, d := range a.Run(pkg) {
					if allowed[pi][allowKey{d.Pos.Filename, d.Pos.Line, a.Name()}] {
						continue
					}
					ds = append(ds, d)
				}
			}
			wall := time.Since(start)
			results[i] = ds
			timings[i] = Timing{Analyzer: a.Name(), Wall: wall, WallMS: float64(wall.Microseconds()) / 1e3, Findings: len(ds)}
		}(i, a)
	}
	wg.Wait()
	var out []Diagnostic
	for _, ds := range results {
		out = append(out, ds...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, timings
}

const directivePrefix = "//ringlint:"

// directive extracts the ringlint directive from one comment, returning
// the verb ("hotpath", "allow", ...) and the rest of the line.
func directive(c *ast.Comment) (verb, args string, ok bool) {
	rest, found := strings.CutPrefix(c.Text, directivePrefix)
	if !found {
		return "", "", false
	}
	verb, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(verb), strings.TrimSpace(args), true
}

// groupDirective scans a comment group for a directive with the given verb
// and returns its arguments.
func groupDirective(g *ast.CommentGroup, verb string) (args string, ok bool) {
	if g == nil {
		return "", false
	}
	for _, c := range g.List {
		if v, a, isDir := directive(c); isDir && v == verb {
			return a, true
		}
	}
	return "", false
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowLines collects //ringlint:allow suppressions. An allow comment
// covers its own line (trailing-comment form) and the following line
// (comment-above form).
func allowLines(pkg *Package) map[allowKey]bool {
	out := make(map[allowKey]bool)
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				verb, args, ok := directive(c)
				if !ok || verb != "allow" {
					continue
				}
				name, _, _ := strings.Cut(args, "--")
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[allowKey{pos.Filename, pos.Line, name}] = true
				out[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return out
}

type fileLine struct {
	file string
	line int
}

// directiveLines collects every occurrence of the given verb, keyed by
// the lines it covers: its own (trailing-comment form) and the next
// (comment-above form). The value is the directive's arguments with any
// `-- reason` suffix stripped.
func directiveLines(pkg *Package, verb string) map[fileLine]string {
	out := make(map[fileLine]string)
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				v, args, ok := directive(c)
				if !ok || v != verb {
					continue
				}
				args, _, _ = strings.Cut(args, "--")
				args = strings.TrimSpace(args)
				pos := pkg.Fset.Position(c.Pos())
				out[fileLine{pos.Filename, pos.Line}] = args
				out[fileLine{pos.Filename, pos.Line + 1}] = args
			}
		}
	}
	return out
}

// fileHasDirective reports whether the file header (comments before the
// package clause) carries the given directive, and returns its args.
func fileHasDirective(pkg *Package, f *ast.File, verb string) (string, bool) {
	for _, g := range f.Comments {
		if g.Pos() >= f.Package {
			break
		}
		if args, ok := groupDirective(g, verb); ok {
			return args, true
		}
	}
	return "", false
}

// fieldDirective reports whether a struct field carries the directive in
// its doc or trailing comment.
func fieldDirective(field *ast.Field, verb string) bool {
	if _, ok := groupDirective(field.Doc, verb); ok {
		return true
	}
	_, ok := groupDirective(field.Comment, verb)
	return ok
}

// diag builds a Diagnostic at the given node.
func diag(pkg *Package, name string, node ast.Node, format string, args ...interface{}) Diagnostic {
	return Diagnostic{
		Pos:      pkg.Fset.Position(node.Pos()),
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	}
}
