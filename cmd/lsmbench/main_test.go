package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestListPrintsFigures runs the binary: -list prints the figure IDs.
func TestListPrintsFigures(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lsmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "fig14") {
		t.Fatalf("lsmbench -list: err = %v, output %q", err, out)
	}
}
