package lsm

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// failingReads is a device whose page reads fail while failing is set,
// after the first allow of them.
type failingReads struct {
	storage.Device
	failing bool
	allow   int
}

var errInjectedRead = errors.New("injected read failure")

func (d *failingReads) ReadPage(id storage.FileID, page int, dst []byte) ([]byte, error) {
	if d.failing {
		if d.allow <= 0 {
			return nil, errInjectedRead
		}
		d.allow--
	}
	return d.Device.ReadPage(id, page, dst)
}

// TestMergeInputReadFailureLeavesNoFile: a merge whose read of an input
// page fails — the first one, or one after other input scans already pin
// pages — returns the error, leaves only the inputs' files and no pinned
// buffer-cache frame.
func TestMergeInputReadFailureLeavesNoFile(t *testing.T) {
	for _, allow := range []int{0, 1, 3} {
		dev := &failingReads{Device: storage.NewDisk(storage.ScaledHDD(1024))}
		// No buffer cache: every page read reaches the device.
		store := storage.NewStore(dev, 0, metrics.NopEnv())
		tr := New(Options{Name: "t", Store: store, BloomFPR: 0.01, Seed: 1})
		for round := 0; round < 2; round++ {
			for i := 0; i < 100; i++ {
				tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(100*round + i)})
			}
			if _, err := tr.Flush(uint64(round)); err != nil {
				t.Fatal(err)
			}
		}
		inputs := dev.List()
		dev.failing, dev.allow = true, allow
		if _, err := tr.Merge(MergeSpec{Lo: 0, Hi: 2, DropAnti: true}); !errors.Is(err, errInjectedRead) {
			t.Fatalf("allow %d: Merge error = %v, want the injected read failure", allow, err)
		}
		if files := dev.List(); !slices.Equal(files, inputs) {
			t.Fatalf("allow %d: files after the failed merge = %v, want only the inputs %v", allow, files, inputs)
		}
		if n := store.Cache().Pinned(); n != 0 {
			t.Fatalf("allow %d: %d frames still pinned after the failed merge", allow, n)
		}
	}
}

// TestLaneAccounting: with Options.Lane set, flush builds and merges advance
// only the lane's clock, and a Get on the installed component charges the
// foreground clock; with Lane nil, all of it charges the foreground clock.
func TestLaneAccounting(t *testing.T) {
	for _, withLane := range []bool{true, false} {
		env := metrics.NewEnv()
		laneEnv := env.BackgroundLane()
		store := storage.NewStore(storage.NewDisk(storage.ScaledHDD(1024)), 0, env)
		opts := Options{Name: "t", Store: store, BloomFPR: 0.01, Seed: 1}
		if withLane {
			opts.Lane = store.WithEnv(laneEnv)
		}
		tr := New(opts)
		// charged runs f and reports how far each clock advanced.
		charged := func(f func() error) (fg, lane time.Duration) {
			fg0, lane0 := env.Clock.Now(), laneEnv.Clock.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			return env.Clock.Now() - fg0, laneEnv.Clock.Now() - lane0
		}
		check := func(op string, fg, lane time.Duration, maintenance bool) {
			t.Helper()
			wantLane := withLane && maintenance
			if wantLane && (fg != 0 || lane <= 0) || !wantLane && (fg <= 0 || lane != 0) {
				t.Errorf("lane=%v %s: foreground advanced %v, lane %v", withLane, op, fg, lane)
			}
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < 200; i++ {
				tr.Put(kv.Entry{Key: key(i), Value: val(i), TS: int64(200*round + i)})
			}
			fg, lane := charged(func() error {
				frozen, gen, _ := tr.Freeze()
				comp, err := tr.BuildFrozen(frozen, uint64(round))
				if err != nil {
					return err
				}
				return tr.InstallFlushed(frozen, comp, gen)
			})
			check("flush", fg, lane, true)
		}
		fg, lane := charged(func() error {
			res, err := tr.Merge(MergeSpec{Lo: 0, Hi: 2, DropAnti: true})
			if err != nil {
				return err
			}
			return tr.Install(res)
		})
		check("merge", fg, lane, true)
		fg, lane = charged(func() error {
			_, found, err := get(tr, key(7))
			if err == nil && !found {
				err = errors.New("key 7 not found")
			}
			return err
		})
		check("get", fg, lane, false)
	}
}
