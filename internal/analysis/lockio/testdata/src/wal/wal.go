// Package wal is the lockio fixture that stands in for repro/internal/wal:
// the same type, field and method names, over the fixture's stand-in for
// repro/internal/storage, so the test can point the analyzer's DEFAULT
// mutex and blocking lists at them by swapping the package paths and
// nothing else. A default entry that is removed or misspelled leaves a want
// below unmatched.
package wal

import (
	"sync"

	"repro/internal/analysis/lockio/testdata/src/storage"
)

type GroupCommitter interface {
	Wait(commits int64) error
}

type Log struct {
	mu    sync.Mutex
	dev   storage.Device
	group GroupCommitter
	sizes []int
}

func (l *Log) AppendUnderLock(enc []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sizes = append(l.sizes, len(enc))
	return l.dev.AppendWAL(enc) // want `storage\.Device\.AppendWAL while .*\.Log\.mu is held`
}

// AppendOutsideLock is the shape the log's write path has: the device
// append runs before mu is taken, and only the segment's size changes
// under it.
func (l *Log) AppendOutsideLock(enc []byte) error {
	err := l.dev.AppendWAL(enc)
	l.mu.Lock()
	l.sizes = append(l.sizes, len(enc))
	l.mu.Unlock()
	return err
}

func (l *Log) RotateUnderLock(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dev.RotateWAL(seq) // want `storage\.Device\.RotateWAL while .*\.Log\.mu is held`
}

// RotateWaived carries the waiver the real Log.Rotate does.
//
//lsm:lockio-ok test fixture: the rotation runs inside a writer drain, nobody waits on mu
func (l *Log) RotateWaived(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dev.RotateWAL(seq)
}

// DropUnderLock: an unlink is not on the blocking list.
func (l *Log) DropUnderLock(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dev.DropWAL(seq)
}

func (l *Log) WaitUnderLock() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.group.Wait(1) // want `wal\.GroupCommitter\.Wait while .*\.Log\.mu is held`
}
