package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepFlagsRequireShardSweep runs the binary: -dir, -n and -async only
// configure the shard sweep, so naming one without -shardsweep must exit 2
// and say which, never run the figures with the flag ignored.
func TestSweepFlagsRequireShardSweep(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lsmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want []string // flags the refusal must name
	}{
		{[]string{"-dir", "/nonexistent", "-list"}, []string{"-dir"}},
		{[]string{"-list", "-n", "20000"}, []string{"-n"}},
		{[]string{"-list", "-async=2"}, []string{"-async"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("lsmbench %v: err = %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		for _, name := range tc.want {
			if !strings.Contains(string(out), name) {
				t.Errorf("lsmbench %v: output %q does not name %s", tc.args, out, name)
			}
		}
	}
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "fig14") {
		t.Fatalf("lsmbench -list: err = %v, output %q", err, out)
	}
}
