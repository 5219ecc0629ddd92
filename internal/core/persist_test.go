package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bloom"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/storage/filedev"
)

// openFileDataset opens a dataset of strategy on a file device in dir, with
// the served filter (bloom.V2) and the served page size.
func openFileDataset(t testing.TB, dir string, strategy Strategy) (*Dataset, *filedev.Device) {
	t.Helper()
	dev, err := filedev.Open(dir, storage.SSD())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Config{
		Store:         storage.NewStore(dev, 16<<20, metrics.NopEnv()),
		Strategy:      strategy,
		Secondaries:   []SecondarySpec{{Name: "location", Extract: recLocation}},
		FilterExtract: recYear,
		MemoryBudget:  64 << 10,
		UsePKIndex:    true,
		BloomFPR:      0.01,
		Bloom:         bloom.KindV2,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(errors.Join(err, dev.Close()))
	}
	// Closing a closed device is a no-op, so a test may close it first.
	t.Cleanup(func() {
		if err := dev.Close(); err != nil {
			t.Error(err)
		}
	})
	return d, dev
}

// fillFileDataset upserts n records, every third one an update of an
// earlier key, deletes a few, and flushes: several components per tree,
// with bitmaps or deleted-key trees where the strategy keeps them.
func fillFileDataset(t testing.TB, d *Dataset, n int) {
	t.Helper()
	for i := range n {
		id := uint64(i)
		if i%3 == 2 {
			id = uint64(i / 2)
		}
		if err := d.Upsert(pkOf(id), testRecord([]string{"CA", "NY", "WA"}[i%3], int64(2000+i%20))); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if _, err := d.Delete(pkOf(uint64(i / 3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRoundTrip: for every strategy, the manifest a reopened
// dataset saves is byte for byte the one the dataset before it saved, and
// every component's filter comes back from its file, not from a rebuild.
func TestManifestRoundTrip(t *testing.T) {
	for _, strategy := range []Strategy{Eager, Validation, MutableBitmap, DeletedKey} {
		t.Run(strategy.String(), func(t *testing.T) {
			dir := t.TempDir()
			d, dev := openFileDataset(t, dir, strategy)
			fillFileDataset(t, d, 4000)
			if err := d.Persist(); err != nil {
				t.Fatal(err)
			}
			saved := bytes.Clone(d.manifest)
			if len(d.primary.Components()) < 2 {
				t.Fatalf("setup: %d primary components", len(d.primary.Components()))
			}
			if err := dev.Close(); err != nil {
				t.Fatal(err)
			}

			re, _ := openFileDataset(t, dir, strategy)
			if err := re.Persist(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.manifest, saved) {
				t.Fatalf("the reopened dataset saves another manifest:\nbefore %x\nafter  %x", saved, re.manifest)
			}
			for i, c := range re.primary.Components() {
				enc, err := c.BTree.AppendFilter(nil)
				if err != nil || len(enc) == 0 {
					t.Fatalf("primary component %d: its file carries no filter (%v)", i, err)
				}
				if !bytes.Equal(enc, c.Bloom.(*bloom.V2).AppendTo(nil)) {
					t.Fatalf("primary component %d: the restored filter is not the one in its file", i)
				}
			}
		})
	}
}

// TestPersistAllocations: a warm Persist — the manifest record, the named
// file sets and the reclaim pass — allocates nothing of its own; all it
// allocates is what the device's SaveManifest does with the same bytes.
func TestPersistAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	d, dev := openFileDataset(t, t.TempDir(), Validation)
	fillFileDataset(t, d, 4000)
	if err := d.Persist(); err != nil { // grows the scratch
		t.Fatal(err)
	}
	data := bytes.Clone(d.manifest)
	save := testing.AllocsPerRun(20, func() {
		if err := dev.SaveManifest(data); err != nil {
			t.Fatal(err)
		}
	})
	persist := testing.AllocsPerRun(20, func() {
		if err := d.Persist(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Persist: %v objects, SaveManifest alone %v, manifest %d bytes", persist, save, len(data))
	if persist > save {
		t.Errorf("a warm Persist allocated %v objects, SaveManifest alone %v", persist, save)
	}
}

// TestManifestRefusesCorruption: a manifest whose bytes changed — one
// flipped bit anywhere, a lost tail — does not decode, and a directory
// holding one is refused at reopen, never restored from.
func TestManifestRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	d, dev := openFileDataset(t, dir, Validation)
	fillFileDataset(t, d, 1000)
	if err := d.Persist(); err != nil {
		t.Fatal(err)
	}
	good := bytes.Clone(d.manifest)
	if _, err := decodeManifest(good); err != nil {
		t.Fatalf("the saved manifest does not decode: %v", err)
	}
	for bit := range len(good) * 8 {
		bad := bytes.Clone(good)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeManifest(bad); !errors.Is(err, errCorruptManifest) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit %d flipped: err = %v, want a checksum mismatch", bit, err)
		}
	}
	for _, n := range []int{0, 1, len(good) / 2, len(good) - 1} {
		if _, err := decodeManifest(good[:n]); !errors.Is(err, errCorruptManifest) {
			t.Fatalf("first %d bytes: err = %v, want errCorruptManifest", n, err)
		}
	}

	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 0x10
	if err := dev.SaveManifest(bad); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	redev, err := filedev.Open(dir, storage.SSD())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := redev.Close(); err != nil {
			t.Error(err)
		}
	}()
	cfg := d.cfg
	cfg.Store = storage.NewStore(redev, 16<<20, metrics.NopEnv())
	if _, err := Open(cfg); !errors.Is(err, errCorruptManifest) {
		t.Fatalf("reopen over a flipped manifest: err = %v, want errCorruptManifest", err)
	}
}

// FuzzManifestDecode: any bytes decode to a manifest or to an error, never
// a panic; a manifest that decodes keeps its trees apart, and flipping any
// one of its bits fails the checksum.
func FuzzManifestDecode(f *testing.F) {
	for _, strategy := range []Strategy{Validation, MutableBitmap, DeletedKey} {
		d, dev := openFileDataset(f, f.TempDir(), strategy)
		fillFileDataset(f, d, 600)
		if err := d.Persist(); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(d.manifest), uint32(0))
		if err := dev.Close(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{}, uint32(0))
	f.Add([]byte(manifestMagic), uint32(7))
	f.Add([]byte(`{"Version":1,"Trees":[]}`), uint32(3))
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, tr := range m.trees {
			if seen[tr.name] {
				t.Fatalf("tree %q decoded twice", tr.name)
			}
			seen[tr.name] = true
			if len(tr.sharedValid) != len(tr.comps) {
				t.Fatalf("tree %q: %d shared flags for %d components", tr.name, len(tr.sharedValid), len(tr.comps))
			}
		}
		flipped := bytes.Clone(data)
		i := int(bit % uint32(len(data)*8))
		flipped[i/8] ^= 1 << (i % 8)
		if _, err := decodeManifest(flipped); !errors.Is(err, errCorruptManifest) {
			t.Fatalf("bit %d flipped: err = %v, want errCorruptManifest", i, err)
		}
	})
}

// BenchmarkPersist measures one component install's manifest save on the
// file device: the record appended from the trees, the device sync and the
// atomic replace. Quote it at -benchtime=200x. B/save is the record's size.
func BenchmarkPersist(b *testing.B) {
	d, _ := openFileDataset(b, b.TempDir(), Validation)
	fillFileDataset(b, d, 4000)
	if err := d.Persist(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := d.Persist(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(d.manifest)), "B/save")
	b.ReportMetric(float64(countComponents(d)), "components")
}

func countComponents(d *Dataset) int {
	n := 0
	for _, nt := range d.trees {
		n += nt.tree.NumDiskComponents()
	}
	return n
}
