package main

import (
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/lsmclient"
	"repro/lsmstore"
)

// syncBuffer collects a child process's output while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

var (
	wireAddrLine = regexp.MustCompile(`serving (.+) \(strategy \S+, \d+ shard\(s\)\) on (\S+)\n`)
	httpAddrLine = regexp.MustCompile(`on http://(\S+)\n`)

	readCacheHits = regexp.MustCompile(`(?m)^lsm_engine_read_cache_hits_total (\d+)$`)
)

// running is one live lsmserver process.
type running struct {
	cmd        *exec.Cmd
	out        *syncBuffer
	wire, http string
}

// startServer launches the binary on dir with ephemeral ports and reads both
// listen addresses from its start-up lines, the first of which names dir.
func startServer(t *testing.T, bin, dir string) *running {
	t.Helper()
	r := &running{out: &syncBuffer{}}
	r.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-dir", dir, "-shards", "2", "-pprof", "-slow-threshold", "1us")
	r.cmd.Stdout, r.cmd.Stderr = r.out, r.out
	if err := r.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.cmd.Process.Kill() }) // no-op once the process has been waited for
	waitFor(t, "the start-up lines", func() bool {
		out := r.out.String()
		w, h := wireAddrLine.FindStringSubmatch(out), httpAddrLine.FindStringSubmatch(out)
		if w == nil || h == nil {
			return false
		}
		r.wire, r.http = w[2], h[1]
		return true
	})
	if w := wireAddrLine.FindStringSubmatch(r.out.String()); w[1] != dir {
		t.Fatalf("the start-up line names %q, not the -dir %q", w[1], dir)
	}
	return r
}

// terminate sends SIGTERM and requires a clean drain: exit status 0 and the
// "closed cleanly" line that follows the store's final sync.
func (r *running) terminate(t *testing.T) {
	t.Helper()
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := r.cmd.Wait(); err != nil {
		t.Fatalf("lsmserver exit after SIGTERM: %v\n%s", err, r.out)
	}
	if !strings.Contains(r.out.String(), "closed cleanly") {
		t.Fatalf("no \"closed cleanly\" after SIGTERM:\n%s", r.out)
	}
}

// fetch GETs a sidecar endpoint and returns its body, or nil unless it
// answered 200.
func (r *running) fetch(path string) []byte {
	resp, err := http.Get("http://" + r.http + path)
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return body
}

// waitBody polls a sidecar endpoint until it answers 200 with every wanted
// substring. The server records a request after its reply is on the socket,
// so the histograms may trail the client by one request.
func (r *running) waitBody(t *testing.T, path string, wants ...string) {
	t.Helper()
	waitFor(t, path+" to serve "+strings.Join(wants, ", "), func() bool {
		body := r.fetch(path)
		if body == nil {
			return false
		}
		for _, w := range wants {
			if !bytes.Contains(body, []byte(w)) {
				return false
			}
		}
		return true
	})
}

func tweet(id uint64) (pk, rec []byte) {
	tw := workload.Tweet{ID: id, UserID: uint32(id % 32), Creation: int64(id), Message: []byte("m")}
	return tw.PK(), tw.Encode()
}

// TestServeDrainReopen drives the built binary end to end: serve on the disk
// backend, answer every wire op class and every sidecar endpoint, drain on
// SIGTERM with exit status 0, and serve the same data after a restart.
func TestServeDrainReopen(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lsmserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const singles, batched = 100, 200
	dir := t.TempDir()
	srv := startServer(t, bin, dir)
	c, err := lsmclient.Dial(srv.wire)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < singles; i++ {
		pk, rec := tweet(i)
		if err := c.Upsert(pk, rec); err != nil {
			t.Fatal(err)
		}
	}
	var batch []lsmstore.Mutation
	for i := uint64(singles); i < singles+batched; i++ {
		pk, rec := tweet(i)
		batch = append(batch, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: pk, Record: rec})
		if len(batch) == 50 {
			if _, err := c.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for i := uint64(0); i < singles+batched; i += 3 {
		pk, rec := tweet(i)
		if got, found, err := c.Get(pk); err != nil || !found || !bytes.Equal(got, rec) {
			t.Fatalf("get %d: found=%v err=%v", i, found, err)
		}
	}
	res, err := c.SecondaryQuery("user", workload.UserKey(3), workload.UserKey(3),
		lsmstore.QueryOptions{Validation: lsmstore.TimestampValidation})
	if err != nil {
		t.Fatal(err)
	}
	if want := (singles + batched + 31 - 3) / 32; len(res.Records) != want {
		t.Fatalf("secondary query returned %d records, want %d", len(res.Records), want)
	}
	recs, err := c.FilterScan(10, 19, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("filter scan returned %d records, want 10", len(recs))
	}

	// The read cache is on by default: a key read twice is a hit the
	// second time.
	hot, _ := tweet(1)
	for n := 0; n < 2; n++ {
		if _, found, err := c.Get(hot); err != nil || !found {
			t.Fatalf("get 1, read %d: found=%v err=%v", n+1, found, err)
		}
	}
	waitFor(t, "a read-cache hit on /metrics", func() bool {
		m := readCacheHits.FindSubmatch(srv.fetch("/metrics"))
		return m != nil && string(m[1]) != "0"
	})

	srv.waitBody(t, "/healthz", "ok")
	srv.waitBody(t, "/metrics", `lsm_request_duration_seconds_bucket{op="get"`, "lsm_maintenance_flushes_total")
	srv.waitBody(t, "/debug/slow", `"total":`)
	srv.waitBody(t, "/debug/maintenance", `"summary":`)
	srv.waitBody(t, "/debug/pprof/cmdline", "lsmserver")
	c.Close()
	srv.terminate(t)

	// Same directory, new process: a single write and a batched one are
	// both served again.
	srv = startServer(t, bin, dir)
	c2, err := lsmclient.Dial(srv.wire)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, id := range []uint64{7, singles + batched - 1} {
		pk, rec := tweet(id)
		if got, found, err := c2.Get(pk); err != nil || !found || !bytes.Equal(got, rec) {
			t.Fatalf("get %d after reopen: found=%v err=%v", id, found, err)
		}
	}
	c2.Close()
	srv.terminate(t)
}
