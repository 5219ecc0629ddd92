// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, just large enough to host lsmlint's
// invariant checkers (see doc.go for the invariants themselves).
//
// The repo builds against the bare standard library, so instead of
// importing x/tools the package defines the same Analyzer/Pass/Diagnostic
// shapes, and internal/analysis/load (a `go list -test -export` source
// loader) supplies what go/packages would. Analyzers written against
// this package port to the real x/tools API by changing one import.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis pass: a named checker over a single
// type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives. It must
	// be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// one-line summary.
	Doc string

	// Flags holds analyzer-specific configuration: scopes whose defaults
	// encode the engine's contracts, which tests point at their fixtures.
	Flags flag.FlagSet

	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers set it.
	Report func(Diagnostic)

	// directives indexes //lsm: comments by file and line; built lazily.
	directives map[*ast.File]map[int][]Directive
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// PathMatches reports whether pkgpath is covered by a comma-separated
// package list. An entry ending in "/..." covers that package and its
// subpackages; a plain entry covers exactly that package — or, when
// subtree is set, its subpackages too. An external test package ("p_test")
// is covered wherever p is.
func PathMatches(pkgpath, list string, subtree bool) bool {
	pkgpath = strings.TrimSuffix(pkgpath, "_test")
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if root, ok := strings.CutSuffix(e, "/..."); ok {
			if pkgpath == root || strings.HasPrefix(pkgpath, root+"/") {
				return true
			}
			continue
		}
		if pkgpath == e || (subtree && strings.HasPrefix(pkgpath, e+"/")) {
			return true
		}
	}
	return false
}
