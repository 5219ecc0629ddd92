// Package load turns `go list` package patterns into parsed, type-checked
// packages for the lsmlint analyzers, using only the standard library and
// the go toolchain itself.
//
// It shells out once to `go list -test -export -deps -json`, which compiles
// (or reuses from the build cache) gc export data for every dependency, then
// parses the target packages from source and type-checks them against that
// export data via go/importer's lookup mode. This is the same shape as the
// x/tools go/packages LoadAllSyntax path, minus the dependency.
//
// Test files are analyzed the way `go vet` analyzes them: a matched package
// p with internal tests is loaded as its test variant "p [p.test]", whose
// GoFiles include the _test.go files, and its external test package
// "p_test [p.test]" is loaded as well. Both are type-checked under their
// plain paths (p and p_test). The generated p.test mains and other
// packages' test-time recompilations ("p [q.test]") are skipped.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
}

// Package is one parsed and type-checked target package.
type Package struct {
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Result holds the loaded target packages and their shared FileSet.
type Result struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Load resolves patterns (as `go list` understands them, relative to dir)
// and returns every matched package, with its test files, parsed and
// type-checked. Dependencies are consumed as export data, never re-parsed.
func Load(dir string, patterns ...string) (*Result, error) {
	args := append([]string{
		"list", "-test", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Export,ImportMap,DepOnly",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string)
	var listed []listPackage
	hasTestVariant := make(map[string]bool)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Name == "" || len(p.GoFiles) == 0 {
			continue
		}
		path, variant := splitID(p.ImportPath)
		switch variant {
		case "":
			if strings.HasSuffix(path, ".test") {
				continue // a generated test main
			}
		case path + ".test":
			hasTestVariant[path] = true
		case strings.TrimSuffix(path, "_test") + ".test":
			// the external test package
		default:
			continue // recompiled for another package's test
		}
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	res := &Result{Fset: fset}
	shared := newImporter(fset, exports, nil)
	for _, p := range listed {
		path, variant := splitID(p.ImportPath)
		if variant == "" && hasTestVariant[path] {
			continue // its test variant covers the same files and more
		}
		imp := shared
		if len(p.ImportMap) > 0 {
			imp = newImporter(fset, exports, p.ImportMap)
		}
		pkg, err := typecheck(fset, imp, path, p)
		if err != nil {
			return nil, err
		}
		res.Pkgs = append(res.Pkgs, pkg)
	}
	return res, nil
}

// splitID splits a `go list -test` ID such as "p_test [p.test]" into its
// plain import path and the test binary in brackets ("" for none).
func splitID(id string) (path, variant string) {
	path, rest, ok := strings.Cut(id, " [")
	if !ok {
		return id, ""
	}
	return path, strings.TrimSuffix(rest, "]")
}

// newImporter reads export data for the imports of packages that share
// importMap. The map sends an external test package's imports to the
// variants compiled for its test; the importer still caches each package
// by its plain path, the name every export file uses for the packages it
// mentions, so packages with an import map each get an importer of their
// own.
func newImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(importPath string) (io.ReadCloser, error) {
		id := importPath
		if mapped, ok := importMap[importPath]; ok {
			id = mapped
		}
		file, ok := exports[id]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", id)
		}
		return os.Open(file)
	})
}

// typecheck parses lp's files and type-checks them as package path.
func typecheck(fset *token.FileSet, imp types.Importer, path string, lp listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		file := name
		if !filepath.IsAbs(file) {
			file = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{ImportPath: path, Files: files, Pkg: pkg, Info: info}, nil
}
