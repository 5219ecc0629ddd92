package core

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/maint"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// heldDevice blocks the first page append after arm until release is
// closed, so a flush build can be held mid-way for as long as a test likes.
type heldDevice struct {
	storage.Device
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (d *heldDevice) AppendPage(id storage.FileID, data []byte) (int, error) {
	if d.armed.CompareAndSwap(true, false) {
		close(d.entered)
		<-d.release
	}
	return d.Device.AppendPage(id, data)
}

// waitStalled spins until some goroutine is parked in the backpressure
// wait: its stack shows stallForBackpressure under a condition-variable
// Wait, so the stall's start time has already been taken.
func waitStalled(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := runtime.Stack(buf, true)
		for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
			if bytes.Contains(g, []byte("stallForBackpressure")) && bytes.Contains(g, []byte("(*Cond).Wait")) {
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatal("no writer stalled on backpressure")
}

// TestWriteStallAccounting holds a flush build while a writer is stalled
// behind it and requires the stall to be counted once, for at least as long
// as the build was held: one frozen batch is the bound, one worker builds
// it, and its first page append blocks until the test lets it go.
func TestWriteStallAccounting(t *testing.T) {
	const hold = 50 * time.Millisecond
	env := metrics.NopEnv()
	dev := &heldDevice{
		Device:  storage.NewDisk(storage.ScaledHDD(4096)),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	dev.armed.Store(true)
	pool := maint.NewPool(1)
	defer pool.Close()
	d := newTestDataset(t, func(c *Config) {
		c.Store = storage.NewStore(dev, 1<<30, env)
		c.Maintenance = pool
		c.MemoryBudget = 32 << 10
		c.MaxFrozenMemtables = 1
	})
	frozen := func() int {
		d.maint.mu.Lock()
		defer d.maint.mu.Unlock()
		return d.maint.frozen
	}
	// Write until a batch freezes; its build then blocks on the device.
	id := uint64(0)
	for ; frozen() == 0; id++ {
		mustUpsert(t, d, id, "CA", 2020)
	}
	<-dev.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Stalls: the one frozen batch allowed is not installed yet.
		if err := d.Upsert(pkOf(id), testRecord("NY", 2021)); err != nil {
			t.Error(err)
		}
	}()
	waitStalled(t)
	time.Sleep(hold)
	close(dev.release)
	<-done

	c := env.Counters
	if got := c.WriteStalls.Load(); got != 1 {
		t.Fatalf("WriteStalls = %d, want 1", got)
	}
	if got := time.Duration(c.WriteStallNanos.Load()); got < hold {
		t.Fatalf("WriteStallNanos = %v, want at least the %v the build was held", got, hold)
	}
}
