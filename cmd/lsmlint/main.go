// Command lsmlint is the repo's invariant-enforcing static analyzer
// suite. It bundles four checkers for the engine's concurrency and
// durability contracts:
//
//	lockio      no blocking I/O while an engine mutex is held
//	erraudit    no silently discarded errors in durability packages
//	poolleak    sync.Pool buffers must not escape their request
//	clocksource simulation code must use the virtual metrics.Clock
//
// It takes `go list` package patterns and analyzes every matched package
// together with its test files (internal and external test packages):
//
//	go run ./cmd/lsmlint ./...
//
// Each finding prints as file:line:col: message, and the exit status is 1
// when there was any. See internal/analysis/doc.go for the invariants and
// the //lsm: annotation protocol for justified exceptions.
package main

import (
	"cmp"
	"fmt"
	"go/token"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/clocksource"
	"repro/internal/analysis/erraudit"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockio"
	"repro/internal/analysis/poolleak"
)

var analyzers = []*analysis.Analyzer{
	lockio.Analyzer,
	erraudit.Analyzer,
	poolleak.Analyzer,
	clocksource.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsmlint: ")
	patterns := os.Args[1:]
	if len(patterns) == 0 || strings.HasPrefix(patterns[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: lsmlint <packages...>")
		os.Exit(2)
	}
	res, err := load.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	var findings []finding
	for _, p := range res.Pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      res.Fset,
				Files:     p.Files,
				Pkg:       p.Pkg,
				TypesInfo: p.Info,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, finding{relative(wd, res.Fset.Position(d.Pos)), d.Message})
				},
			}
			if _, err := a.Run(pass); err != nil {
				log.Fatalf("%s: %s: %v", p.ImportPath, a.Name, err)
			}
		}
	}
	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(cmp.Compare(a.posn.Filename, b.posn.Filename),
			cmp.Compare(a.posn.Line, b.posn.Line), cmp.Compare(a.posn.Column, b.posn.Column))
	})
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.posn, f.message)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

type finding struct {
	posn    token.Position
	message string
}

// relative names posn's file relative to the working directory wd when the
// file lies under it, as `go vet` does.
func relative(wd string, posn token.Position) token.Position {
	if rel, err := filepath.Rel(wd, posn.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		posn.Filename = rel
	}
	return posn
}
