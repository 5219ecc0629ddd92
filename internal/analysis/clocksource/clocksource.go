// Package clocksource implements the lsmlint analyzer that keeps
// simulation code on the virtual clock.
//
// The cost model's reproducibility — and the deterministic simulation
// harness (internal/dst), whose seeded runs must reproduce bit for bit —
// depend on sim-backend code never consulting wall time: every duration
// must come from the metrics.Clock that I/O and CPU events advance, or a
// seeded run stops being a pure function of its seed. clocksource forbids the time package's clock
// reads and timers (time.Now, time.Since, time.Sleep, time.After,
// timers/tickers) in the configured packages. The real-device backend
// (filedev) is deliberately out of scope: on real hardware, wall time is
// the honest measure.
//
// Justified exceptions carry //lsm:clocksource-ok <reason>.
package clocksource

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

const directive = "clocksource-ok"

// Analyzer is the clocksource pass.
var Analyzer = &analysis.Analyzer{
	Name: "clocksource",
	Doc:  "report wall-clock reads (time.Now, time.Sleep, timers) in simulation code that must use the virtual metrics.Clock",
	Run:  run,
}

var packageList string

func init() {
	Analyzer.Flags.StringVar(&packageList, "packages",
		"repro/internal/storage,repro/internal/experiments,repro/internal/dst",
		"comma-separated packages that must use the virtual clock (exact; suffix /... covers subpackages)")
}

// banned lists the wall-clock entry points of package time. Duration
// arithmetic and constants stay allowed — only reading the real clock or
// arming real timers breaks determinism.
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PathMatches(pass.Pkg.Path(), packageList, false) {
		return nil, nil
	}
	pass.CheckDirectives(directive)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[se.Sel.Name] {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[se.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if pass.Suppressed(directive, se.Pos()) {
				return true
			}
			pass.Reportf(se.Pos(), "time.%s reads the wall clock in simulation code; use the virtual metrics.Clock (or annotate //lsm:clocksource-ok <why>)",
				se.Sel.Name)
			return true
		})
	}
	return nil, nil
}
