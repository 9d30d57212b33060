// Package analysis is a self-contained static-analysis framework for this
// repository, mirroring the vocabulary of golang.org/x/tools/go/analysis
// (Analyzer, Pass, diagnostics) on the standard library alone. The repo is
// deliberately dependency-free, so the framework is grown here instead of
// imported; the shape is kept close to x/tools so the analyzers could be
// ported to a stock multichecker by swapping this package out.
//
// The analyzers under internal/analysis/... enforce the simulator's
// foundational invariants statically: the DES clock is the only clock in
// simulation code (walltime), every opened trace span is closed on every
// path (spanend), deterministic packages never depend on map order or
// math/rand and route all concurrency through the engine (determinism), and
// byte/picosecond quantities never cross a type boundary as bare numbers
// (unitcast). See docs/LINTING.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run inspects a single package
// and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// comments. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// protects and why it matters for the simulator.
	Doc string
	// Run performs the check on one package. It may be nil for analyzers
	// that only operate module-wide through RunModule.
	Run func(*Pass) error
	// RunModule, when non-nil, performs an additional interprocedural check
	// over every loaded package at once (e.g. call-graph traversals that
	// cross package boundaries). It runs once per hamlint invocation, after
	// the per-package passes.
	RunModule func(*ModulePass) error
}

// A Diagnostic is one finding, resolved to a concrete source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// unscoped marks a module-wide finding whose rule holds in every
	// package (ModulePass.ReportfUnscoped): the scoping predicate keeps it.
	unscoped bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An AllowEntry is one //lint:allow directive found in a loaded file. The
// same entry is indexed on both lines it applies to, so suppressing a
// finding on either marks the directive used.
type AllowEntry struct {
	// Name is the analyzer the directive suppresses, or "all".
	Name string
	// Pos locates the comment itself.
	Pos token.Position
	// Used reports whether the directive suppressed at least one finding
	// during this run.
	Used bool
}

// allowIndex records, per file and line, the //lint:allow entries in force.
// A comment suppresses findings on its own line and, when it stands alone,
// on the line directly below it.
type allowIndex map[string]map[int][]*AllowEntry

// buildAllowIndex scans the files of a package for //lint:allow comments.
// The first word after "lint:allow" is the analyzer name (or "all"); the
// rest of the comment is a free-form justification. It returns the line
// index plus the distinct entries in source order.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []*AllowEntry) {
	idx := allowIndex{}
	var entries []*AllowEntry
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Slash)
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int][]*AllowEntry{}
					idx[pos.Filename] = lines
				}
				e := &AllowEntry{Name: fields[0], Pos: pos}
				entries = append(entries, e)
				// Apply to the comment's own line (trailing comment) and to
				// the line after its comment group (comment block above the
				// offending statement, possibly spanning several lines).
				lines[pos.Line] = append(lines[pos.Line], e)
				end := fset.Position(cg.End()).Line
				lines[end+1] = append(lines[end+1], e)
			}
		}
	}
	return idx, entries
}

func (idx allowIndex) allows(d Diagnostic) bool {
	for _, e := range idx[d.Pos.Filename][d.Pos.Line] {
		// `all` does not cover allowcheck: a stale blanket directive would
		// otherwise suppress its own staleness report. Opting out of
		// allowcheck takes an explicit //lint:allow allowcheck.
		if e.Name == d.Analyzer || (e.Name == "all" && d.Analyzer != "allowcheck") {
			e.Used = true
			return true
		}
	}
	return false
}

// An AllowTracker accumulates every //lint:allow directive seen across one
// lint invocation and whether each suppressed a finding, so the allowcheck
// pass can report the stale ones. Pass the same tracker to RunTracked for
// every package and to RunModuleTracked; a nil tracker disables tracking.
type AllowTracker struct {
	selected map[string]bool
	full     bool
	byPkg    map[string]allowIndex
	entries  []*AllowEntry
}

// NewAllowTracker returns a tracker for a run executing the named analyzers.
// full marks a whole-suite run: only then can an `all` directive be judged
// stale, since a partial run might have skipped the analyzer it suppresses.
func NewAllowTracker(selected []string, full bool) *AllowTracker {
	t := &AllowTracker{
		selected: map[string]bool{},
		full:     full,
		byPkg:    map[string]allowIndex{},
	}
	for _, name := range selected {
		t.selected[name] = true
	}
	return t
}

// indexFor returns (building once) the package's allow index, registering
// its entries with the tracker.
func (t *AllowTracker) indexFor(pkg *Package) allowIndex {
	if idx, ok := t.byPkg[pkg.Path]; ok {
		return idx
	}
	idx, entries := buildAllowIndex(pkg.Fset, pkg.Files)
	t.byPkg[pkg.Path] = idx
	t.entries = append(t.entries, entries...)
	return idx
}

// Stale returns the directives that could not have suppressed anything: the
// analyzer they name ran in this invocation, yet no finding was suppressed.
// Directives naming analyzers outside the run are skipped — absence of
// findings proves nothing when the check did not execute — as are `all`
// directives on partial runs. Entries come back in source order.
func (t *AllowTracker) Stale() []*AllowEntry {
	var out []*AllowEntry
	for _, e := range t.entries {
		if e.Used {
			continue
		}
		if e.Name == "all" {
			if t.full {
				out = append(out, e)
			}
			continue
		}
		if t.selected[e.Name] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// RunTracked applies the analyzers that the applies predicate selects for
// the package and returns the surviving findings in source order. A nil
// applies runs every analyzer. //lint:allow suppressions are honoured here so
// every entry point (hamlint, tests) treats them identically, and their use
// is recorded in tracker (which may be nil): hamlint passes one so the
// allowcheck pass can see which directives suppressed nothing across the
// whole invocation.
func RunTracked(pkg *Package, analyzers []*Analyzer, applies func(analyzer, pkgPath string) bool, tracker *AllowTracker) ([]Diagnostic, error) {
	var idx allowIndex
	if tracker != nil {
		idx = tracker.indexFor(pkg)
	} else {
		idx, _ = buildAllowIndex(pkg.Fset, pkg.Files)
	}
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue // module-only analyzer
		}
		if applies != nil && !applies(a.Name, pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			if !idx.allows(d) {
				out = append(out, d)
			}
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// SortDiagnostics orders findings by file, line, column, then analyzer —
// the stable order every output mode (text, JSON, tests) relies on.
func SortDiagnostics(out []Diagnostic) {
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
}

// A ModulePass carries one analyzer's module-wide run over every loaded
// package at once. Interprocedural analyzers use it to follow calls across
// package boundaries.
type ModulePass struct {
	Analyzer *Analyzer
	// Fset is the file set shared by every loaded package.
	Fset *token.FileSet
	// Pkgs are the loaded root packages, sorted by import path.
	Pkgs []*Package
	// Applies is the scoping predicate the run was configured with (nil =
	// everything applies). Module passes consult it to pick their source
	// packages; RunModule itself is never skipped by it.
	Applies func(analyzer, pkgPath string) bool
	// Allows is the invocation-wide //lint:allow tracker, when the driver
	// runs with one (RunModuleTracked). The allowcheck pass reads it; it is
	// nil when the driver passes none.
	Allows *AllowTracker

	diags []Diagnostic
}

// ReportAt records a module-wide finding at an already-resolved position.
func (p *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Reportf records a module-wide finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportfUnscoped records a module-wide finding at pos that the scoping
// predicate does not drop: for a rule bound to a call rather than to a
// package, such as borrowck's on every registered offload kernel.
func (p *ModulePass) ReportfUnscoped(pos token.Pos, format string, args ...any) {
	p.Reportf(pos, format, args...)
	p.diags[len(p.diags)-1].unscoped = true
}

// RunModuleTracked applies the module-wide (RunModule) phase of the given
// analyzers to the full package set and returns the surviving findings in
// source order. //lint:allow suppressions from any loaded file are honoured,
// and a finding whose position lies in a loaded package that the applies
// predicate excludes for the analyzer is dropped — the same scoping rule the
// per-package phase enforces — unless it was reported unscoped. Their use is
// recorded in tracker (which may be nil), which the passes see via
// ModulePass.Allows. Analyzers whose module phase consumes the tracker
// (allowcheck) must come after the ones whose findings it counts, so run
// them last in the suite.
func RunModuleTracked(pkgs []*Package, analyzers []*Analyzer, applies func(analyzer, pkgPath string) bool, tracker *AllowTracker) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	idx := allowIndex{}
	fileOwner := map[string]string{} // filename → import path
	for _, pkg := range pkgs {
		var pkgIdx allowIndex
		if tracker != nil {
			pkgIdx = tracker.indexFor(pkg)
		} else {
			pkgIdx, _ = buildAllowIndex(pkg.Fset, pkg.Files)
		}
		for file, lines := range pkgIdx {
			if idx[file] == nil {
				idx[file] = lines
				continue
			}
			for line, names := range lines {
				idx[file][line] = append(idx[file][line], names...)
			}
		}
		for _, f := range pkg.Files {
			fileOwner[pkg.Fset.Position(f.Pos()).Filename] = pkg.Path
		}
	}

	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs, Applies: applies, Allows: tracker}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s (module pass): %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if idx.allows(d) {
				continue
			}
			if owner, ok := fileOwner[d.Pos.Filename]; ok && applies != nil && !d.unscoped && !applies(a.Name, owner) {
				continue
			}
			out = append(out, d)
		}
	}
	SortDiagnostics(out)
	return out, nil
}
