package allowcheck_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/allowcheck"
)

// toy reports every use of the literal 42, giving the tracker real
// findings to suppress.
var toy = &analysis.Analyzer{
	Name: "toy",
	Doc:  "flags the literal 42",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if bl, ok := n.(*ast.BasicLit); ok && bl.Value == "42" {
					pass.Reportf(bl.Pos(), "literal 42")
				}
				return true
			})
		}
		return nil
	},
}

// A trailing //lint:allow also covers the next line (comment-block form),
// so the unsuppressed literal sits two lines below the suppressed one.
const src = `package fix

var a = 42 //lint:allow toy justified suppression, stays silent
var gap = 1
var b = 42
var c = 1 //lint:allow toy stale: toy reports nothing here
var d = 1 //lint:allow other analyzer not part of this run
var e = 1 //lint:allow all blanket suppression with nothing to suppress
`

func load(t *testing.T) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := analysis.Typecheck(fset, "fix", []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Package{Path: "fix", Fset: fset, Files: []*ast.File{f}, Types: pkg, TypesInfo: info}
}

// run executes toy + allowcheck over the fixture under one tracker and
// returns the allowcheck findings as "line:name" strings.
func run(t *testing.T, full bool) []string {
	t.Helper()
	pkg := load(t)
	tracker := analysis.NewAllowTracker([]string{"toy", "allowcheck"}, full)
	diags, err := analysis.RunTracked(pkg, []*analysis.Analyzer{toy}, nil, tracker)
	if err != nil {
		t.Fatal(err)
	}
	// The only surviving toy finding must be the unsuppressed b.
	if len(diags) != 1 || diags[0].Pos.Line != 5 {
		t.Fatalf("toy findings = %v, want exactly the line-4 literal", diags)
	}
	mod, err := analysis.RunModuleTracked([]*analysis.Package{pkg}, []*analysis.Analyzer{allowcheck.Analyzer}, nil, tracker)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range mod {
		got = append(got, d.Message)
		if d.Pos.Line == 0 {
			t.Errorf("allowcheck finding without position: %v", d)
		}
		if d.Analyzer != "allowcheck" {
			t.Errorf("finding attributed to %q, want allowcheck", d.Analyzer)
		}
	}
	return got
}

// TestPartialRun: only directives naming executed analyzers are judged.
// The used `toy` directive stays silent, the unused one on line 5 is
// stale, `other` (not in the run) and `all` (partial run) are skipped.
func TestPartialRun(t *testing.T) {
	got := run(t, false)
	if len(got) != 1 || !strings.Contains(got[0], "stale //lint:allow toy") {
		t.Fatalf("partial-run stale set = %v, want exactly the unused toy directive", got)
	}
}

// TestFullRun: under the full suite the blanket `all` directive is judged
// too; `other` still is not — its analyzer does not exist in this run.
func TestFullRun(t *testing.T) {
	got := run(t, true)
	if len(got) != 2 {
		t.Fatalf("full-run stale set = %v, want the unused toy and all directives", got)
	}
	if !strings.Contains(got[0], "stale //lint:allow toy") || !strings.Contains(got[1], "stale //lint:allow all") {
		t.Fatalf("full-run stale set = %v", got)
	}
}

// TestUntrackedRunIsSilent: without a tracking driver the pass reports
// nothing rather than guessing.
func TestUntrackedRunIsSilent(t *testing.T) {
	pkg := load(t)
	diags, err := analysis.RunModuleTracked([]*analysis.Package{pkg}, []*analysis.Analyzer{allowcheck.Analyzer}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("untracked run reported %v, want nothing", diags)
	}
}
