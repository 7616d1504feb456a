package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureWant is one `// want "regex"` expectation scraped from a fixture.
type fixtureWant struct {
	file    string
	pattern string
	re      *regexp.Regexp
}

// scanWants collects the `// want "regex"` trailing comments of a fixture
// package, keyed by line number. Fixtures are one file per package, so a
// plain line key is unambiguous.
func scanWants(t *testing.T, pkg *Package) map[int]*fixtureWant {
	t.Helper()
	out := make(map[int]*fixtureWant)
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				rest, ok := strings.CutPrefix(c.Text, `// want "`)
				if !ok {
					continue
				}
				pattern, ok := strings.CutSuffix(strings.TrimSpace(rest), `"`)
				if !ok {
					t.Fatalf("malformed want comment: %s", c.Text)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				if out[pos.Line] != nil {
					t.Fatalf("%s:%d: multiple want comments on one line", pos.Filename, pos.Line)
				}
				out[pos.Line] = &fixtureWant{file: pos.Filename, pattern: pattern, re: re}
			}
		}
	}
	return out
}

func analyzerByName(t *testing.T, name string) Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestFixtures runs each analyzer over its testdata package and checks the
// diagnostics against the `// want` marks both ways: every mark must be
// matched by a diagnostic on its line, and every diagnostic must land on a
// marked line with a matching message.
func TestFixtures(t *testing.T) {
	for _, name := range []string{
		"hotpath", "derivedstate", "truncation", "viewsafe",
		"guardedby", "golife", "refpair", "syncio", "ctxflow",
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkgs, err := Load(dir, []string{dir})
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), dir)
			}
			wants := scanWants(t, pkgs[0])
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			diags := Run(pkgs, []Analyzer{analyzerByName(t, name)})
			matched := make(map[int]bool)
			for _, d := range diags {
				w := wants[d.Pos.Line]
				if w == nil {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !w.re.MatchString(d.Message) {
					t.Errorf("diagnostic %q at %s:%d does not match want %q",
						d.Message, d.Pos.Filename, d.Pos.Line, w.pattern)
				}
				matched[d.Pos.Line] = true
			}
			for line, w := range wants {
				if !matched[line] {
					t.Errorf("%s:%d: want %q matched no diagnostic", w.file, line, w.pattern)
				}
			}
		})
	}
}

// TestSelect pins ringlint -only's filter: an empty list is the whole
// suite, known names select exactly those analyzers in suite order, and
// any unknown name — alone or among valid ones — is an error naming it.
func TestSelect(t *testing.T) {
	var all []string
	for _, a := range Analyzers() {
		all = append(all, a.Name())
	}
	for _, tc := range []struct {
		names   string
		want    []string
		unknown string // non-empty: Select must fail and name it
	}{
		{names: "", want: all},
		{names: strings.Join(all, ","), want: all},
		{names: "syncio, guardedby", want: []string{"guardedby", "syncio"}},
		{names: "nosuch", unknown: `"nosuch"`},
		{names: "guardedby,nosuch", unknown: `"nosuch"`},
	} {
		got, err := Select(tc.names)
		if tc.unknown != "" {
			if err == nil || !strings.Contains(err.Error(), tc.unknown) {
				t.Errorf("Select(%q) = %d analyzers, %v; want an error naming %s", tc.names, len(got), err, tc.unknown)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", tc.names, err)
			continue
		}
		var names []string
		for _, a := range got {
			names = append(names, a.Name())
		}
		if strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("Select(%q) = %v, want %v", tc.names, names, tc.want)
		}
	}
}

// TestSuppressionsHaveReasons requires every reviewed-exception
// directive in the module to document itself: an allow, detach,
// transfer or goroutine-exception without `-- reason` is an
// unexplained opt-out, which defeats the point of annotating.
func TestSuppressionsHaveReasons(t *testing.T) {
	reasoned := map[string]bool{
		"allow": true, "detach": true, "transfer": true, "goroutine-exception": true,
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "//ringlint:")
			if idx < 0 {
				continue
			}
			rest := line[idx+len("//ringlint:"):]
			verb, args, _ := strings.Cut(rest, " ")
			if !reasoned[strings.TrimSpace(verb)] {
				continue
			}
			if !strings.Contains(args, "--") || strings.TrimSpace(strings.SplitN(args, "--", 2)[1]) == "" {
				t.Errorf("%s:%d: //ringlint:%s without `-- reason`", path, i+1, strings.TrimSpace(verb))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepoClean runs the full analyzer suite over the real module — the
// same gate `make lint` enforces — and requires zero diagnostics.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root := filepath.Join("..", "..")
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages from the module root")
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}
