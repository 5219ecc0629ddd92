// Package storetest holds the shared test fixtures of the lsmstore crash
// and durability batteries: deterministic workloads, full-read-path store
// images, crash-image directory snapshots, and an acknowledged-write
// ledger. The persistence battery (persist_test.go), the group-commit
// battery (groupcommit_test.go) and the fault-path battery all run through
// these helpers, so "what counts as a crash image" and "what counts as the
// store's visible state" are defined in exactly one place.
package storetest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage/filedev"
	"repro/internal/workload"
	"repro/lsmstore"
)

// TweetPK returns the primary key of tweet id.
func TweetPK(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }

// TweetRec returns an encoded tweet record.
func TweetRec(id uint64, user uint32, creation int64) []byte {
	return workload.Tweet{ID: id, UserID: user, Creation: creation, Message: []byte("m")}.Encode()
}

// BaseOptions returns the batteries' small store configuration: a "user"
// secondary index, a creation-time filter, and budgets tiny enough that
// every test exercises flushes and merges. Dir is left empty, so each store
// lives in a temporary directory its Close removes; a test that reopens the
// directory or inspects its files goes through DiskOptions.
func BaseOptions(strategy lsmstore.Strategy) lsmstore.Options {
	return lsmstore.Options{
		Strategy: strategy,
		Secondaries: []lsmstore.SecondaryIndex{
			{Name: "user", Extract: workload.UserIDOf},
		},
		FilterExtract: workload.CreationOf,
		MemoryBudget:  64 << 10,
		CacheBytes:    2 << 20,
		PageSize:      4 << 10,
		Seed:          5,
	}
}

// DiskOptions returns BaseOptions in dir.
func DiskOptions(strategy lsmstore.Strategy, dir string) lsmstore.Options {
	opts := BaseOptions(strategy)
	opts.Dir = dir
	return opts
}

// ValidationFor returns the query validation method a strategy needs for
// correct secondary reads. DeletedKey must validate directly: its
// secondary entries carry no usable timestamps, so Timestamp validation
// can let records whose secondary key changed leak into range answers.
func ValidationFor(s lsmstore.Strategy) lsmstore.ValidationMethod {
	switch s {
	case lsmstore.Eager:
		return lsmstore.NoValidation
	case lsmstore.DeletedKey:
		return lsmstore.DirectValidation
	default:
		return lsmstore.TimestampValidation
	}
}

// StoreImage reads every observable of the store through all read paths —
// point gets for ids, a secondary range query, and a filter scan — into
// one comparable string.
func StoreImage(t testing.TB, db *lsmstore.DB, ids []uint64, validation lsmstore.ValidationMethod) string {
	t.Helper()
	var sb []string
	for _, id := range ids {
		rec, found, err := db.Get(TweetPK(id))
		if err != nil {
			t.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("get:%d:%v:%x", id, found, rec))
	}
	q, err := db.SecondaryQuery("user", workload.UserKey(0), workload.UserKey(39),
		lsmstore.QueryOptions{Validation: validation})
	if err != nil {
		t.Fatal(err)
	}
	var secs []string
	for _, r := range q.Records {
		secs = append(secs, fmt.Sprintf("%x=%x", r.PK, r.Value))
	}
	sort.Strings(secs)
	sb = append(sb, "secondary:"+fmt.Sprint(secs))
	var scans []string
	if err := db.FilterScan(0, 1<<62, func(pk, rec []byte) {
		scans = append(scans, fmt.Sprintf("%x=%x", pk, rec))
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(scans)
	sb = append(sb, "scan:"+fmt.Sprint(scans))
	return fmt.Sprint(sb)
}

// MixedWorkload drives a deterministic insert/update/delete stream and
// returns the touched ids, sorted.
func MixedWorkload(t testing.TB, db *lsmstore.DB, n int, seed int64) []uint64 {
	t.Helper()
	muts, ids := MixedMutations(n, seed)
	for _, m := range muts {
		if m.Op == lsmstore.OpDelete {
			if _, err := db.Delete(m.PK); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Upsert(m.PK, m.Record); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// MixedMutations is MixedWorkload's stream as mutations, for a caller that
// applies it some other way (in batches, say), and the touched ids, sorted.
func MixedMutations(n int, seed int64) ([]lsmstore.Mutation, []uint64) {
	cfg := workload.DefaultConfig(seed)
	cfg.UserIDRange = 40
	cfg.UpdateRatio = 0.4
	cfg.ZipfUpdates = true
	gen := workload.NewGenerator(cfg)
	seen := map[uint64]bool{}
	muts := make([]lsmstore.Mutation, 0, n)
	for i := 0; i < n; i++ {
		op := gen.Next()
		seen[op.Tweet.ID] = true
		if i%17 == 13 {
			muts = append(muts, lsmstore.Mutation{Op: lsmstore.OpDelete, PK: op.Tweet.PK()})
			continue
		}
		muts = append(muts, lsmstore.Mutation{Op: lsmstore.OpUpsert, PK: op.Tweet.PK(), Record: op.Tweet.Encode()})
	}
	ids := make([]uint64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return muts, ids
}

// SnapshotStoreDir copies a store directory — live or abandoned — into dst
// as some crash would have frozen it. The store keeps unlinking while the
// copy runs: a merged-away component goes once the manifest that no longer
// names it is durable, a log segment once the manifest that covers it is.
// Both wait for a manifest, so each shard is copied between two reads of
// its MANIFEST and copied again if they differ: with the manifest unchanged
// from start to end, nothing it names and no log segment it does not cover
// was taken away meanwhile. Log segments are copied oldest first, so a
// rotation during the copy can only cost the newest records — writes
// acknowledged after the snapshot began.
func SnapshotStoreDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if !e.IsDir() {
			err = CopyFile(sp, dp)
		} else {
			err = snapshotShard(sp, dp)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func snapshotShard(src, dst string) error {
	const manifest = "MANIFEST"
	for attempt := 0; attempt < 1000; attempt++ {
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		before, err := os.ReadFile(filepath.Join(src, manifest))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		files, err := os.ReadDir(src) // sorted by name: log segments oldest first
		if err != nil {
			return err
		}
		for _, f := range files {
			// A lock never survives its process, a temp file is half an
			// atomic replace, and a file that vanishes under the copy is
			// one the manifest check below vouches for or rejects.
			if f.IsDir() || f.Name() == manifest || f.Name() == "LOCK" || strings.HasSuffix(f.Name(), ".tmp") {
				continue
			}
			if err := CopyFile(filepath.Join(src, f.Name()), filepath.Join(dst, f.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		after, err := os.ReadFile(filepath.Join(src, manifest))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if !bytes.Equal(before, after) || !namedFilesPresent(before, dst) {
			continue
		}
		if before == nil {
			return nil
		}
		return os.WriteFile(filepath.Join(dst, manifest), before, 0o644)
	}
	return fmt.Errorf("storetest: %s never held still long enough to snapshot", src)
}

// namedFilesPresent reports whether every component file the manifest names
// is in dir.
func namedFilesPresent(manifest []byte, dir string) bool {
	if manifest == nil {
		return true
	}
	files, err := core.ManifestFiles(manifest)
	if err != nil {
		return false
	}
	for _, id := range files {
		if _, err := os.Stat(filepath.Join(dir, filedev.ComponentFileName(id))); err != nil {
			return false
		}
	}
	return true
}

// CopyFile copies src to dst, truncating any existing dst.
func CopyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// KillAndReopen simulates a process kill: it freezes a crash image of dir
// into a fresh temp directory (the live store, still holding its flock and
// its unflushed memory, is simply abandoned by the caller) and reopens the
// image with opts. It returns the reopened store and the image directory.
func KillAndReopen(t testing.TB, dir string, opts lsmstore.Options) (*lsmstore.DB, string) {
	t.Helper()
	snap := t.TempDir()
	if err := SnapshotStoreDir(dir, snap); err != nil {
		t.Fatal(err)
	}
	opts.Dir = snap
	re, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatalf("reopen of crash image: %v", err)
	}
	return re, snap
}

// Ledger records acknowledged writes under concurrency: writers Ack the
// exact bytes the store acknowledged, a test Snapshots the set right
// before freezing a crash image, and VerifyAll demands every snapshotted
// write back — with its exact value — from the reopened store.
type Ledger struct {
	mu    sync.Mutex
	acked map[uint64][]byte
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{acked: map[uint64][]byte{}} }

// Ack records that the write of rec under id was acknowledged.
func (l *Ledger) Ack(id uint64, rec []byte) {
	l.mu.Lock()
	l.acked[id] = rec
	l.mu.Unlock()
}

// Len returns the number of acknowledged writes so far.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// Snapshot returns a copy of the acknowledged set, safe to read while
// writers keep acking.
func (l *Ledger) Snapshot() map[uint64][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint64][]byte, len(l.acked))
	for id, rec := range l.acked {
		out[id] = rec
	}
	return out
}

// VerifyAll checks that db serves every write in survivors exactly.
func VerifyAll(t testing.TB, db *lsmstore.DB, survivors map[uint64][]byte) {
	t.Helper()
	for id, want := range survivors {
		got, found, err := db.Get(TweetPK(id))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("acknowledged write %x lost in the crash image", id)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acknowledged write %x corrupted: got %x want %x", id, got, want)
		}
	}
}
