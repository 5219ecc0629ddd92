package dst

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/storage/filedev"
)

// snapshotCrashImage copies the store directory src into dst as the
// directory an OS-level crash would have left behind:
//
//   - Every regular file is copied as the filesystem holds it. Pages the
//     process still buffers in memory are naturally absent — exactly what
//     dies with the process — while SaveManifest's install barrier
//     guarantees every file a surviving manifest references was synced.
//   - The manifest itself is installed by atomic rename, so the copy holds
//     either the old or the new one, never a mix.
//   - Each shard's live WAL segment is truncated to its fsync-covered
//     prefix plus a seeded fraction of the unsynced tail: write()n-but-
//     unsynced bytes survive an OS crash only as far as the kernel
//     happened to flush them. Cutting mid-record produces the torn tail
//     the WAL decoder must stop at. Sealed segments are copied whole: the
//     rotation that sealed them fsynced them first.
//   - The LOCK file is skipped; a lock never survives its process.
//   - Temp files of an atomic replace (*.tmp) are skipped, and so is any
//     entry that vanishes while the walk runs — the store keeps working
//     during the copy, and the rename that installs a manifest removes its
//     temp file between the walk's readdir and its lstat. No surviving
//     manifest ever references a temp file.
func snapshotCrashImage(src, dst string, c *Control, r *rng) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, path)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		base := filepath.Base(path)
		if base == "LOCK" || strings.HasSuffix(base, ".tmp") {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil
		}
		if rerr != nil {
			return rerr
		}
		live, length, durable := c.WALState(shardOfDir(filepath.Dir(rel)))
		if live != 0 && base == filedev.WALSegmentName(live) {
			unsynced := length - durable
			keep := durable
			if unsynced > 0 {
				keep += int64(r.float() * float64(unsynced+1))
			}
			if keep < int64(len(data)) {
				data = data[:keep]
			}
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// shardOfDir extracts the shard index from a "shard-NNNN" path element.
func shardOfDir(dir string) int {
	base := filepath.Base(dir)
	if n, ok := strings.CutPrefix(base, "shard-"); ok {
		var idx int
		if _, err := fmt.Sscanf(n, "%d", &idx); err == nil {
			return idx
		}
	}
	return 0
}
