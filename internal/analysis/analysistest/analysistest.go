// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its findings against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library.
//
// A fixture line carries expectations as quoted regular expressions:
//
//	end := tr.Begin("x") // want `never called`
//	_ = time.Now()       // want "wall clock" "second finding on this line"
//
// Every diagnostic must be matched by a want on its line and every want
// must match a diagnostic; //lint:allow suppression is applied exactly as
// hamlint applies it, so fixtures can test the suppression mechanism too.
// Fixture imports (both standard-library and hamoffload/...) are resolved
// from compiler export data, so fixtures may exercise the real simtime and
// units types.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hamoffload/internal/analysis"
)

// Run loads testdata/src/<pkg> relative to the calling test's directory,
// applies the analyzer, and reports any mismatch with the // want comments
// as test failures.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	p := load(t, dir, pkg)
	diags, err := analysis.RunTracked(p, []*analysis.Analyzer{a}, nil, nil)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkg, err)
	}
	check(t, []*analysis.Package{p}, diags)
}

// RunModule loads several fixture packages under testdata/src into one
// shared file set — listed dependencies-first, so later fixtures may import
// earlier ones by their bare fixture name — applies the analyzer's
// module-wide pass under the given scoping predicate, and checks the
// findings against the // want comments of every fixture file.
func RunModule(t *testing.T, a *analysis.Analyzer, applies func(analyzer, pkgPath string) bool, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	local := map[string]*types.Package{}
	var pkgs []*analysis.Package
	for _, pkgPath := range pkgPaths {
		dir := filepath.Join("testdata", "src", pkgPath)
		p := loadInto(t, fset, local, dir, pkgPath)
		local[pkgPath] = p.Types
		pkgs = append(pkgs, p)
	}
	diags, err := analysis.RunModuleTracked(pkgs, []*analysis.Analyzer{a}, applies, nil)
	if err != nil {
		t.Fatalf("module pass of %s: %v", a.Name, err)
	}
	check(t, pkgs, diags)
}

// load parses and type-checks one fixture package in its own file set.
func load(t *testing.T, dir, pkgPath string) *analysis.Package {
	t.Helper()
	return loadInto(t, token.NewFileSet(), nil, dir, pkgPath)
}

// loadInto parses and type-checks one fixture package into fset. Imports
// resolve first against local (fixture packages loaded earlier in the same
// module set), then against compiler export data.
func loadInto(t *testing.T, fset *token.FileSet, local map[string]*types.Package, dir, pkgPath string) *analysis.Package {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(names)
	var files []*ast.File
	imports := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", name, err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && local[path] == nil {
				imports[path] = true
			}
		}
	}
	exports := exportData(t, imports)
	exporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	pkg, info, err := analysis.Typecheck(fset, pkgPath, files, chainImporter{local, exporter})
	if err != nil {
		t.Fatalf("fixture %s must type-check: %v", pkgPath, err)
	}
	return &analysis.Package{
		Path: pkgPath, Dir: dir, Fset: fset, Files: files, Types: pkg, TypesInfo: info,
	}
}

// chainImporter resolves fixture-local packages before falling back to
// export data, so module fixtures can import each other.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}

// exportData resolves the fixture's imports (and their dependency closure)
// to compiler export-data files via `go list -deps -export`.
func exportData(t *testing.T, imports map[string]bool) map[string]string {
	t.Helper()
	exports := map[string]string{}
	if len(imports) == 0 {
		return exports
	}
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range imports {
		args = append(args, path)
	}
	sort.Strings(args[5:])
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports
}

// want is one expectation: a regexp anchored to a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// check matches diagnostics against the // want comments of the fixtures.
func check(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := p.Fset.Position(c.Slash)
					for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
						expr := m[1]
						if m[2] != "" {
							expr = m[2]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unclaimed want on the diagnostic's line that
// matches its message.
func claim(wants []*want, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
