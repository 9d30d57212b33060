package hamoffload_test

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// optionSuffixes name the option types: an exported struct type whose name
// ends in one of them.
var optionSuffixes = []string{"Config", "Options", "Policy", "Budget", "Tolerance"}

// optionSkip are the packages whose option types are not checked: bench's
// types are its experiments' own parameters, which its table sets, and
// internal/analysis configures the linters.
var optionSkip = []string{"bench", "internal/analysis"}

// optionAllow names the option fields no program sets that stay, each with
// why: at most 3. An entry that a program sets, or that names no field,
// fails the test.
var optionAllow = map[string]string{
	"gateway.Config.Placement": "the gateway tests pin requests to chosen VEs with a test-only affinity policy; every program takes LeastInFlight",
}

// TestOptionCallers fails on every exported field of an option type that no
// program sets: no composite-literal key and no assignment names it in the
// non-test code of another package. The test-support packages count as
// tests. A field no program sets doubles the configurations tests must
// cover for a value nothing runs; fold it into the value every program
// gets. docs/LINTING.md, "Reachable code", gives the rule.
func TestOptionCallers(t *testing.T) {
	if len(optionAllow) > 3 {
		t.Errorf("optionAllow has %d entries, more than 3", len(optionAllow))
	}
	pkgs := modulePackages(t)
	fields := map[*types.Var]string{} // every checked field, by its name
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.Path, reachModule+"/")
		if slices.ContainsFunc(optionSkip, func(p string) bool { return rel == p || strings.HasPrefix(rel, p+"/") }) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() ||
				!slices.ContainsFunc(optionSuffixes, func(s string) bool { return strings.HasSuffix(name, s) }) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = rel + "." + name + "." + f.Name()
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		if slices.Contains(reachSupport, strings.TrimPrefix(pkg.Path, reachModule+"/")) {
			continue
		}
		write := func(f *types.Var) {
			if f = f.Origin(); f.Pkg() != pkg.Types {
				set[f] = true
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := pkg.TypesInfo.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if f, ok := pkg.TypesInfo.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(f)
							}
						} else {
							write(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writeChain(pkg.TypesInfo, lhs, write)
					}
				case *ast.IncDecStmt:
					writeChain(pkg.TypesInfo, n.X, write)
				}
				return true
			})
		}
	}
	for name := range optionAllow {
		found := false
		for f, fname := range fields {
			if fname == name {
				found = true
				if set[f] {
					t.Errorf("optionAllow names %s, which a program sets; drop its entry", name)
				}
			}
		}
		if !found {
			t.Errorf("optionAllow names %s, which is not an option field", name)
		}
	}
	var unset []string
	for f, name := range fields {
		if _, ok := optionAllow[name]; !ok && !set[f] {
			unset = append(unset, pkgs[0].Fset.Position(f.Pos()).String()+": "+name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no program; fold it into the value every program gets, or allow it with a reason", u)
	}
}

// writeChain reports each field selected along an assigned expression:
// x.A.B = v writes both B and the A that holds it.
func writeChain(info *types.Info, e ast.Expr, write func(*types.Var)) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				write(sel.Obj().(*types.Var))
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}
