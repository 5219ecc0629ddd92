package lsmstore

import (
	"repro/internal/metrics"
	"repro/internal/storage"
)

// OpenSimulated opens a DB whose shards run on the simulated device the
// paper's figures use (storage.Disk), built through the same partition
// setup as Open. It keeps no directory, so there is no layout to check and
// no manifest: Options.Dir and Options.WrapDevice are ignored. The parity
// tests open their reference store with it.
func OpenSimulated(opts Options) (*DB, error) {
	return open(opts, func(_ Options, _ int, profile storage.Profile, _ *metrics.Counters) (storage.Device, error) {
		return storage.NewDisk(profile), nil
	})
}
