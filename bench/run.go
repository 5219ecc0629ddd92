package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/lsmclient"
	"repro/lsmstore"
)

// params is one run's inputs.
type params struct {
	spec    *workloadSpec
	seed    uint64
	seconds int
	// scale shrinks preloads and phases alike; 1 outside the test.
	scale float64
	// root is the directory store dirs are created (and removed) under.
	root string
	// traceDir is where the traced run writes its span files.
	traceDir string
}

func (p params) scaled(n int) int { return int(float64(n) * p.scale) }

// requests is the measured phase's fixed request count.
func (p params) requests() int { return p.scaled(p.spec.reqPerSec * p.seconds) }

// served is a fresh store under its own directory, the in-process server
// in front of it, and the two clients with their connections.
type served struct {
	dir     string
	db      *lsmstore.DB
	srv     *server.Server
	conns   []*lsmclient.Client
	clients []*client
	openS   float64
}

// targets returns each client's connection as its target.
func (s *served) targets() []target {
	ts := make([]target, len(s.conns))
	for i, c := range s.conns {
		ts[i] = c
	}
	return ts
}

// quiesce flushes every memory component and waits for maintenance to
// drain, so a measurement starts or ends on a store with no work pending.
func quiesce(db *lsmstore.DB) error {
	if err := db.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Minute)
	for {
		queued, active, _ := db.MaintPoolStats()
		if queued == 0 && active == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("maintenance did not settle within a minute")
		}
		time.Sleep(time.Millisecond)
	}
}

// setUp builds the workload's starting state: open, serve, preload,
// quiesce, warm up with the first 5 % of the phase's requests, quiesce,
// collect garbage. Its duration is setup_s.
func setUp(p params) (*served, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(p.root, "store-")
	if err != nil {
		return nil, 0, err
	}
	s := &served{dir: dir}
	ok := false
	defer func() {
		if !ok {
			s.tearDown()
		}
	}()
	openStart := time.Now()
	if s.db, err = lsmstore.Open(storeOptions(dir)); err != nil {
		return nil, 0, err
	}
	s.openS = time.Since(openStart).Seconds()
	if s.srv, err = server.New(server.Config{DB: s.db, Addr: "127.0.0.1:0"}); err != nil {
		return nil, 0, err
	}
	if err = s.srv.Start(); err != nil {
		return nil, 0, err
	}
	reqs := p.requests()
	for i := 0; i < nClients; i++ {
		conn, err := lsmclient.DialOptions(lsmclient.Options{Addr: s.srv.Addr().String()})
		if err != nil {
			return nil, 0, err
		}
		s.conns = append(s.conns, conn)
		// Room for every key the run can insert (warm-up and recorded
		// messages included), so the model never grows a slice inside the
		// measured phase.
		perRequest := 1
		if p.spec.pctBatch > 0 {
			perRequest = batchSize
		}
		capacity := p.scaled(p.spec.preload)/nClients + ((reqs+reqs/10)/nClients+codecMessages)*perRequest + preloadBatch
		s.clients = append(s.clients, newClient(p.spec, p.seed, i, capacity, p.scaled(p.spec.hot)/nClients))
	}
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.preload(s.db, p.scaled(p.spec.preload)/nClients, p.scaled(p.spec.preUpdates)/nClients)
		}()
	}
	wg.Wait()
	if err = errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	if err = quiesce(s.db); err != nil {
		return nil, 0, err
	}
	if warm := runPhase(s.clients, s.targets(), int(float64(reqs)*warmupFrac), ""); warm.failed > 0 {
		return nil, 0, fmt.Errorf("%d of %d warm-up requests failed", warm.failed, warm.attempted)
	}
	if err = quiesce(s.db); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	ok = true
	return s, time.Since(start), nil
}

// tearDown stops the server, closes the store and removes its directory.
func (s *served) tearDown() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
	}
	if s.db != nil {
		s.db.Close()
	}
	os.RemoveAll(s.dir)
}

// phase is what a measured phase observed from outside the system.
type phase struct {
	wall              time.Duration
	attempted, failed int // requests
	logical           int // operations completed OK; a batch of 64 counts 64
	requests          [numKinds]int
	records           [numKinds]int // records returned to queries and scans
	// lat holds each request's client-observed latency in nanoseconds, by
	// kind, both clients together.
	lat    [numKinds][]int64
	cpu    time.Duration // process user+sys
	allocs uint64        // runtime.MemStats.Mallocs
	spans  []span        // traced run only
}

func (ph *phase) writes() int { return ph.requests[opUpsert] + ph.requests[opBatch] }

func (ph *phase) opsPerSec() float64 { return float64(ph.logical) / ph.wall.Seconds() }

// span is one timed call made by the benchmark. Times are nanoseconds
// since the phase started; Parent indexes the phase's span list (-1 for a
// root); spans of one request share Req.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Req        uint64
}

// liveHeapMiB collects garbage and returns what is still reachable: the
// store's memory plus the benchmark's model and samples.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase has every client issue its share of n requests against its
// target, closed-loop, and returns what was observed. With a non-empty
// layer — the layer the timed calls enter, "lsmclient" or "lsmstore" —
// every request also leaves a span under its client's root span.
func runPhase(clients []*client, targets []target, n int, layer string) *phase {
	type perClient struct {
		res   []result
		lat   []int64
		spans []span
	}
	per := make([]perClient, len(clients))
	share := n / len(clients)
	var names [numKinds]string
	for k := range names {
		names[k] = layer + "." + kindNames[k]
	}
	for i := range per {
		per[i].res = make([]result, 0, share)
		per[i].lat = make([]int64, 0, share)
		if layer != "" {
			per[i].spans = make([]span, 0, share)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := &per[i]
			for k := 0; k < share; k++ {
				t0 := time.Since(start)
				r := c.do(targets[i])
				t1 := time.Since(start)
				pc.res = append(pc.res, r)
				pc.lat = append(pc.lat, int64(t1-t0))
				if layer != "" {
					pc.spans = append(pc.spans, span{
						Name: names[r.kind], Start: int64(t0), End: int64(t1),
						Parent: i, Req: uint64(i)<<32 | uint64(k),
					})
				}
			}
		}()
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms)
	ph.allocs = ms.Mallocs - allocs0
	if layer != "" {
		for i := range clients {
			ph.spans = append(ph.spans, span{Name: fmt.Sprintf("%s.client%d", layer, i), End: int64(ph.wall), Parent: -1})
		}
	}
	for i := range per {
		for k, r := range per[i].res {
			ph.attempted++
			ph.requests[r.kind]++
			ph.records[r.kind] += int(r.records)
			ph.lat[r.kind] = append(ph.lat[r.kind], per[i].lat[k])
			if r.ok {
				ph.logical += int(r.logical)
			} else {
				ph.failed++
			}
		}
		ph.spans = append(ph.spans, per[i].spans...)
	}
	for k := range ph.lat {
		slices.Sort(ph.lat[k])
	}
	return ph
}

// quantile returns the nearest-rank q-quantile of sorted nanosecond
// samples in microseconds, or 0 when there are none.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(int(q*float64(len(sorted))), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result, in the shape BENCHMARK.json's contract
// asks for.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Unbounded holds the untraced run's unboundedMetrics; it is printed on
	// a line of its own, outside the contract's object.
	Unbounded map[string]metric `json:"-"`
}

func (o *outcome) count(attempted, failed int) {
	o.Attempted += attempted
	o.Failed += failed
}

// amplification quiesces the store and returns bytes written to disk per
// user byte accepted over the store's life, and bytes under the store
// directory per live user byte.
func amplification(s *served) (writeAmp, spaceAmp float64, err error) {
	if err := quiesce(s.db); err != nil {
		return 0, 0, err
	}
	var live, disk int64
	for _, c := range s.clients {
		live += c.liveBytes()
	}
	err = filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	return float64(s.db.Stats().DiskBytesWritten) / float64(userBytes(s.clients)), float64(disk) / float64(live), err
}

// endToEnd is the untraced run: setupReps set-ups (the last one is kept),
// the measured phase, the correctness checks and the amplification
// figures.
func endToEnd(p params) (*outcome, error) {
	var s *served
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.tearDown()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(p); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.tearDown()
	slices.Sort(setups)

	ph := runPhase(s.clients, s.targets(), p.requests(), "")
	out := &outcome{Attempted: ph.attempted, Failed: ph.failed}
	liveHeap := liveHeapMiB()
	check := newRNG(p.seed ^ 0xc0ffee)
	out.count(checkSampledQueries(s.conns[0], s.clients, &check))
	if p.spec.main == opBatch {
		a, f, _, err := killAndReopen(s, p.root, &check)
		if err != nil {
			return nil, err
		}
		out.count(a, f)
	}
	writeAmp, spaceAmp, err := amplification(s)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"setup_s":       setups[len(setups)/2],
		"ops_per_s":     ph.opsPerSec(),
		"main_p50_us":   quantileUS(ph.lat[p.spec.main], 0.5),
		"cpu_us_per_op": float64(ph.cpu.Microseconds()) / float64(ph.logical),
		"allocs_per_op": float64(ph.allocs) / float64(ph.logical),
		"live_heap_mib": liveHeap,
		"write_amp":     writeAmp,
		"space_amp":     spaceAmp,
	}
	out.Correct = out.Failed == 0
	out.Metrics, out.Unbounded = map[string]metric{}, map[string]metric{}
	for _, d := range endToEndMetrics {
		out.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	for _, d := range unboundedMetrics {
		out.Unbounded[d.name] = metric{m[d.name], d.unit}
	}
	return out, nil
}

// killAndReopen kills the server without flushing, copies the store
// directory the way a crash would freeze it (the abandoned DB keeps the
// directory lock), reopens the copy — WAL replay included, which the
// returned duration times — and reads sampled acknowledged keys back.
func killAndReopen(s *served, root string, r *rng) (attempted, failed int, recover time.Duration, err error) {
	s.srv.Kill()
	image, err := os.MkdirTemp(root, "image-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(image)
	if err := copyCrashImage(s.dir, image); err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	db, err := lsmstore.Open(storeOptions(image))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen after kill: %w", err)
	}
	recover = time.Since(start)
	defer db.Close()
	attempted, failed = checkReadback(db, s.clients, readbackKeys, r)
	return attempted, failed, recover, nil
}

// copyCrashImage copies a store directory in the order a crash image
// needs: per shard, manifest and WAL before the component files they name,
// so a concurrent merge cannot leave the copy naming a file it lacks.
// Component files are write-once, so the image hard-links them instead of
// copying their bytes.
func copyCrashImage(src, dst string) error {
	shards, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, sh := range shards {
		sp, dp := filepath.Join(src, sh.Name()), filepath.Join(dst, sh.Name())
		if !sh.IsDir() {
			if err := copyFile(sp, dp); err != nil {
				return err
			}
			continue
		}
		if err := os.Mkdir(dp, 0o755); err != nil {
			return err
		}
		files, err := os.ReadDir(sp)
		if err != nil {
			return err
		}
		for _, name := range []string{"MANIFEST", "wal.log"} {
			if err := copyFile(filepath.Join(sp, name), filepath.Join(dp, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
		for _, f := range files {
			// The abandoned DB holds LOCK; the reopened store makes its own.
			if f.IsDir() || f.Name() == "MANIFEST" || f.Name() == "wal.log" || f.Name() == "LOCK" {
				continue
			}
			// A file can vanish between the listing and the link when a
			// merge retires it; the manifest copied first does not name it.
			if err := os.Link(filepath.Join(sp, f.Name()), filepath.Join(dp, f.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
