package load_test

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis/load"
)

// TestLoadIncludesTests loads a package with an internal test file and an
// external test package: the result holds the package with its test file
// and the external test package, each once and under its plain path, and
// the external test package resolves p to the variant that sees
// export_test.go.
func TestLoadIncludesTests(t *testing.T) {
	const p = "repro/internal/analysis/load/testdata/src/p"
	res, err := load.Load("testdata", "./src/p")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]string)
	for _, pkg := range res.Pkgs {
		if _, dup := files[pkg.ImportPath]; dup {
			t.Errorf("%s loaded twice", pkg.ImportPath)
		}
		if pkg.Pkg.Path() != pkg.ImportPath {
			t.Errorf("%s type-checked as %s", pkg.ImportPath, pkg.Pkg.Path())
		}
		var names []string
		for _, f := range pkg.Files {
			names = append(names, filepath.Base(res.Fset.Position(f.Pos()).Filename))
		}
		slices.Sort(names)
		files[pkg.ImportPath] = names
	}
	want := map[string][]string{
		p:           {"export_test.go", "p.go"},
		p + "_test": {"p_test.go"},
	}
	for path, names := range want {
		if !slices.Equal(files[path], names) {
			t.Errorf("%s: files %v, want %v", path, files[path], names)
		}
	}
	if len(files) != len(want) {
		t.Errorf("loaded %v, want exactly %v", files, want)
	}
}
