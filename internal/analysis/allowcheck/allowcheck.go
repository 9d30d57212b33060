// Package allowcheck keeps //lint:allow suppressions honest.
//
// A //lint:allow directive trades one analyzer finding for a written
// justification. When the code under it changes — the offending call is
// deleted, the analyzer stops matching, the line moves — the directive
// stays behind and silently suppresses whatever lands on that line next.
// allowcheck reports every directive that suppressed nothing during the
// run, so suppressions cannot rot.
//
// Staleness is only decidable when the named analyzer actually executed:
// on a partial run (hamlint -run walltime) directives naming other
// analyzers are skipped, and `all` directives are judged only under the
// full suite. The pass consumes the invocation-wide usage tracker the
// hamlint driver threads through analysis.RunTracked/RunModuleTracked and
// must therefore run after every other analyzer — it is registered last in
// the suite.
package allowcheck

import (
	"hamoffload/internal/analysis"
)

// Analyzer reports stale //lint:allow directives. Module-wide only, and a
// no-op without a tracker (analysis.RunModuleTracked with nil), since only
// the driver sees the whole invocation.
var Analyzer = &analysis.Analyzer{
	Name: "allowcheck",
	Doc: "report stale //lint:allow directives that no longer suppress any " +
		"finding of the analyzer they name",
	RunModule: runModule,
}

func runModule(pass *analysis.ModulePass) error {
	if pass.Allows == nil {
		return nil
	}
	for _, e := range pass.Allows.Stale() {
		pass.ReportAt(e.Pos,
			"stale //lint:allow %s: it suppresses no finding; remove it (or fix the analyzer name)", e.Name)
	}
	return nil
}
