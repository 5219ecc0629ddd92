package experiments

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// tiny returns a minimal scale so every runner executes in milliseconds.
func tiny() Scale {
	s := Quick()
	s.QueryRecords = 3000
	s.IngestOps = 2500
	s.RepairChunk = 800
	s.RepairChunks = 2
	s.CacheBytes = 1 << 20
	s.MemoryBudget = 64 << 10
	s.MaxMergeable = 512 << 10
	return s
}

// TestEveryFigureRuns smoke-tests every registered experiment: each must
// complete and produce rows for every declared series.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, tiny())
			if err != nil {
				t.Fatal(err)
			}
			if res.Figure != id {
				t.Errorf("figure = %q", res.Figure)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range res.Rows {
				if row.Series == "" || row.X == "" {
					t.Errorf("malformed row %+v", row)
				}
				if row.Value < 0 {
					t.Errorf("negative value %+v", row)
				}
			}
		})
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig999", Quick()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure of the paper's evaluation section must be present.
	want := []string{
		"fig12a", "fig12b", "fig12c", "fig12d",
		"fig13", "fig14", "fig15a", "fig15b",
		"fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22",
		"fig23a", "fig23b", "fig23c",
		"abA-policy", "abB-wal",
	}
	have := strings.Join(IDs(), ",")
	for _, id := range want {
		if !strings.Contains(have, id) {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(IDs()), len(want))
	}
}

func TestResultPrint(t *testing.T) {
	res := &Result{Figure: "figX", Title: "demo"}
	res.Add("a", "x1", 1.5, "s")
	res.Add("a", "x2", 2.5, "s")
	res.Add("b", "x1", 3.5, "s")
	var sb strings.Builder
	res.Print(&sb)
	out := sb.String()
	for _, want := range []string{"figX", "demo", "a", "b", "x1=1.5s", "x2=2.5s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{Default(), Quick(), tiny()} {
		if s.QueryRecords <= 0 || s.IngestOps <= 0 || s.MemoryBudget <= 0 {
			t.Errorf("bad scale %+v", s)
		}
		if int64(s.MemoryBudget) >= s.CacheBytes {
			t.Errorf("memory budget should be below cache size: %+v", s)
		}
	}
}

func TestThroughputHelper(t *testing.T) {
	if throughput(1000, 0) != 0 {
		t.Fatal("zero duration must give zero throughput")
	}
	if got := throughput(2000, 1e9); got != 2.0 { // 2000 ops / 1 s = 2 kops
		t.Fatalf("throughput = %v", got)
	}
}

var update = flag.Bool("update", false, "regenerate testdata/quick.golden")

// TestQuickGolden pins the simulated figures as a regression oracle: every
// figure measured on the virtual clock, rendered at Quick() scale, must match
// testdata/quick.golden byte for byte. fig23a-c measure wall time and are
// excluded. An engine change that moves a figure regenerates the file with
// -update and says why.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure at Quick() scale")
	}
	var ids []string
	for _, id := range IDs() {
		if !strings.HasPrefix(id, "fig23") {
			ids = append(ids, id)
		}
	}
	// Figures share no state, so they render concurrently; the output is
	// assembled in ID order.
	out := make([]bytes.Buffer, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := Run(id, Quick())
			if err != nil {
				errs[i] = err
				return
			}
			res.Print(&out[i])
		}()
	}
	wg.Wait()
	var got bytes.Buffer
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("%s: %v", id, errs[i])
		}
		got.Write(out[i].Bytes())
	}
	const path = "testdata/quick.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("figure output moved at line %d (rerun with -update only if the move is intended):\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("figure output has %d lines, golden has %d", len(gotLines), len(wantLines))
}
