package lsmstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage/filedev"
)

// layoutName is the store-level layout file at the top of a file-backed
// data directory. Per-shard state (manifest, WAL, component files) lives in
// the shard subdirectories; the layout file pins the properties that must
// agree across every shard before any of them opens — most importantly the
// shard count, because primary keys hash onto shards and a different count
// would silently route keys to the wrong partition's data.
const layoutName = "layout.json"

type layout struct {
	// Format numbers the on-disk encodings under the shard directories
	// (today: the write-ahead log's record layout, package wal, the
	// component file layout, packages filedev and btree, and the manifest
	// record, package core). A directory stamped with another number, or
	// none, is refused: its log segments would not decode as
	// corrupt-and-reportable but as an empty torn tail, a format-1
	// component file's slot padding would read as a torn tail after its
	// first page that is not full, and a format-2 manifest is JSON.
	Format   int
	Shards   int
	PageSize int
}

// layoutFormat is the Format this build reads and writes. 1: one log record
// per write. 2: component pages back to back. 3: each component file
// carries its Bloom filter, and the manifest is a checksummed binary
// record. Directories from before the field existed read as 0.
const layoutFormat = 3

// formatNames says what an older Format's directory holds, so the refusal
// names it.
var formatNames = map[int]string{
	0: "from before formats were numbered",
	1: "component pages in fixed slots",
	2: "Bloom filters in a JSON manifest",
}

// shardDir returns shard i's subdirectory of a file-backed store.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

// checkLayout validates an existing file-backed directory against the open
// options, or stamps a fresh directory with the layout of this store.
func checkLayout(opts Options) error {
	want := layout{
		Format:   layoutFormat,
		Shards:   opts.Shards,
		PageSize: resolvePageSize(opts),
	}
	if want.Shards < 1 {
		want.Shards = 1
	}
	path := filepath.Join(opts.Dir, layoutName)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var have layout
		if err := json.Unmarshal(data, &have); err != nil {
			return fmt.Errorf("lsmstore: corrupt %s: %w", layoutName, err)
		}
		if have.Format != want.Format {
			name := formatNames[have.Format]
			if name == "" {
				name = "unknown to this build"
			}
			return fmt.Errorf("lsmstore: directory %s is in on-disk format %d (%s), this build reads and writes format %d only",
				opts.Dir, have.Format, name, want.Format)
		}
		if have != want {
			return fmt.Errorf("lsmstore: directory %s was written as %+v, reopened as %+v", opts.Dir, have, want)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		// A directory holding shard subdirectories but no layout file is a
		// foreign or damaged layout; refuse rather than guess the count.
		if _, err := os.Stat(shardDir(opts.Dir, 0)); err == nil {
			return fmt.Errorf("lsmstore: directory %s holds shard data but no %s", opts.Dir, layoutName)
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(want)
		if err != nil {
			return err
		}
		// Same discipline as the shard manifests: temp + fsync + rename +
		// directory fsync. The layout file gates every future Open, so a
		// power loss must never leave durable shard data behind a missing
		// or torn layout.
		return filedev.AtomicWriteFile(opts.Dir, layoutName, data)
	default:
		return err
	}
}
