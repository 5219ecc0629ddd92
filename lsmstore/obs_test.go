package lsmstore_test

import (
	"testing"

	"repro/lsmstore"
)

// TestMaintStatsGauges checks the maintenance gauges and journal plumbing
// that Stats and the sidecar expose.
func TestMaintStatsGauges(t *testing.T) {
	opts := asyncOptions(lsmstore.Validation, 1, 2)
	db, err := lsmstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	applyWorkload(t, db, 1500)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	st := db.Stats()
	if st.PendingFlushBatches != 0 || st.FrozenMemtables != 0 {
		t.Fatalf("drained store gauges = pending %d frozen %d, want 0/0",
			st.PendingFlushBatches, st.FrozenMemtables)
	}
	if st.Maintenance.Flushes < 1 {
		t.Fatalf("no flushes journaled: %+v", st.Maintenance)
	}

	events := db.MaintJournal().Events()
	if len(events) == 0 {
		t.Fatal("journal ring is empty after flush traffic")
	}
	for _, e := range events {
		if e.Kind != "flush" && e.Kind != "merge" {
			t.Fatalf("unexpected journal event kind %q", e.Kind)
		}
		if e.DurationMicros < 0 || e.AgoMillis < 0 {
			t.Fatalf("negative times in event %+v", e)
		}
	}

	queued, active, workers := db.MaintPoolStats()
	if workers != 2 {
		t.Fatalf("pool workers = %d, want 2", workers)
	}
	if queued != 0 || active != 0 {
		t.Fatalf("drained pool reports queued=%d active=%d", queued, active)
	}
}
