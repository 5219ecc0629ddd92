// Package wal is the lockio fixture that stands in for repro/internal/wal:
// the same type, field and method names, so the test can point the
// analyzer's DEFAULT mutex and blocking lists at it by swapping the package
// path and nothing else. A default entry that is removed or misspelled
// leaves a want below unmatched.
package wal

import "sync"

type Device interface {
	AppendWAL(data []byte) error
	RotateWAL(seq uint64) error
	DropWAL(seq uint64)
}

type GroupCommitter interface {
	Wait(commits int64) error
}

type Log struct {
	mu    sync.Mutex
	dev   Device
	group GroupCommitter
	segs  [][]byte
}

func (l *Log) AppendUnderLock(enc []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.segs = append(l.segs, enc)
	return l.dev.AppendWAL(enc) // want `wal\.Device\.AppendWAL while .*\.Log\.mu is held`
}

// AppendOutsideLock is the shape the log's write path has: the memory image
// changes under mu, the device append runs after it is released.
func (l *Log) AppendOutsideLock(enc []byte) error {
	l.mu.Lock()
	l.segs = append(l.segs, enc)
	l.mu.Unlock()
	return l.dev.AppendWAL(enc)
}

func (l *Log) RotateUnderLock(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dev.RotateWAL(seq) // want `wal\.Device\.RotateWAL while .*\.Log\.mu is held`
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
