package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked, to-be-analyzed package.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// Load type-checks the packages matching patterns (run from dir, which must
// lie inside the module) and returns them ready for analysis, sorted by
// import path. Dependencies outside the patterns — including the standard
// library — are resolved from compiler export data produced by `go list
// -deps -export`, so loading needs no network access and no sources outside
// the module and GOROOT. A matched package imports the other matched
// packages as type-checked here, in go list's dependency order: the module
// is one type universe, so an interface declared in one package and its
// implementations in another are identical types to the CHA table
// (callgraph.ImplTable), and an annotation on the interface method reaches
// them. Only non-test GoFiles are analyzed: the invariants guard production
// simulation code, and tests routinely (and legitimately) range over maps
// or measure wall time. A -overlay in GOFLAGS, which go list honours, is
// honoured here too: a replaced file is parsed from its replacement.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	replace, err := overlay(dir)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var roots []listedPackage
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
		if !m.Standard && !m.DepOnly {
			roots = append(roots, m)
		}
	}
	fset := token.NewFileSet()
	fromExport := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return fromExport.Import(path)
	})

	var pkgs []*Package
	for _, m := range roots {
		if len(m.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range m.GoFiles {
			path := filepath.Join(m.Dir, name)
			var src any // nil: read the file itself
			if r, ok := replace[path]; ok {
				b, err := os.ReadFile(r)
				if err != nil {
					return nil, err
				}
				src = b
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", m.ImportPath, err)
			}
			files = append(files, f)
		}
		pkg, info, err := Typecheck(fset, m.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		checked[m.ImportPath] = pkg
		pkgs = append(pkgs, &Package{
			Path:      m.ImportPath,
			Dir:       m.Dir,
			Fset:      fset,
			Files:     files,
			Types:     pkg,
			TypesInfo: info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// overlay returns the file replacements of the -overlay flag in GOFLAGS, by
// absolute path; relative paths are taken from dir, where go list runs.
func overlay(dir string) (map[string]string, error) {
	for _, f := range strings.Fields(os.Getenv("GOFLAGS")) {
		name, file, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
		if name != "overlay" {
			continue
		}
		data, err := os.ReadFile(abs(dir, file))
		if err != nil {
			return nil, err
		}
		var ov struct{ Replace map[string]string }
		if err := json.Unmarshal(data, &ov); err != nil {
			return nil, fmt.Errorf("overlay %s: %w", file, err)
		}
		replace := map[string]string{}
		for from, to := range ov.Replace {
			replace[abs(dir, from)] = abs(dir, to)
		}
		return replace, nil
	}
	return nil, nil
}

// abs resolves path against dir.
func abs(dir, path string) string {
	if !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	p, _ := filepath.Abs(path)
	return p
}

// goList runs `go list -deps -export -json` and decodes the JSON stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Export,Standard,DepOnly,Dir,GoFiles",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var metas []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var m listedPackage
		if err := dec.Decode(&m); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// NewInfo returns a types.Info with every map the analyzers consult filled
// in. Shared with the analysistest fixture loader.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Typecheck runs the go/types checker over one package, collecting every
// error rather than stopping at the first. It is shared with the
// analysistest fixture loader.
func Typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	var terrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	info := NewInfo()
	pkg, _ := conf.Check(path, fset, files, info)
	if len(terrs) > 0 {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(terrs...))
	}
	return pkg, info, nil
}
