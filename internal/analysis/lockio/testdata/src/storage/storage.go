// Package storage is the lockio fixture that stands in for
// repro/internal/storage: the device interface whose log-area methods the
// analyzer's DEFAULT blocking list names, under the same type and method
// names.
package storage

type Device interface {
	AppendWAL(data []byte) error
	RotateWAL(seq uint64) error
	DropWAL(seq uint64)
}
