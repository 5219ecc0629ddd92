package server

import (
	"repro/internal/obs"
)

// promExposition renders the full Prometheus text-format body served at
// GET /metrics: server counters, engine counters, maintenance journal
// totals and gauges, and — when observability is on — the per-op-class
// and per-stage latency histograms.
func (s *Server) promExposition() []byte {
	var w obs.PromWriter

	sv := s.counters.Snapshot()
	w.Counter("lsm_connections_total", "Connections accepted since start.", sv.Connections)
	w.Gauge("lsm_active_connections", "Connections currently open.", float64(sv.ActiveConns))
	w.Counter("lsm_requests_total", "Requests decoded and dispatched.", sv.Requests)
	w.Counter("lsm_request_errors_total", "Requests answered with an error frame.", sv.Errors)
	w.Counter("lsm_coalesced_batches_total", "ApplyBatch calls issued by the write coalescer.", sv.CoalescedBatches)
	w.Counter("lsm_coalesced_writes_total", "Single writes absorbed into coalesced batches.", sv.CoalescedWrites)
	w.Counter("lsm_slow_requests_total", "Requests at or over the slow-request threshold.", sv.SlowRequests)

	st := s.db.Stats()
	w.Counter("lsm_engine_ingested_total", "Records ingested.", st.Ingested)
	w.Counter("lsm_engine_ignored_total", "Duplicate inserts ignored.", st.Ignored)
	w.Gauge("lsm_engine_primary_components", "On-disk primary components across shards.", float64(st.PrimaryComponents))
	w.Counter("lsm_engine_disk_bytes_written_total", "Bytes written to the storage device.", st.DiskBytesWritten)
	w.Gauge("lsm_engine_wal_bytes", "Bytes of write-ahead log no durable flush covers yet, across shards.", float64(st.WALBytes))
	w.Gauge("lsm_engine_component_bytes", "Bytes of the component files the current component lists name, across shards.", float64(st.ComponentBytes))
	w.Gauge("lsm_engine_retired_files", "Files of merged-away components not yet unlinked (pinned by a reader or awaiting the manifest).", float64(st.RetiredFiles))
	w.Gauge("lsm_engine_pending_flush_batches", "Frozen batches queued for flush across shards.", float64(st.PendingFlushBatches))
	w.Gauge("lsm_engine_frozen_memtables", "Frozen memtables not yet installed across shards.", float64(st.FrozenMemtables))

	c := st.Counters
	w.Counter("lsm_engine_random_reads_total", "Pages read at random positions.", c.RandomReads)
	w.Counter("lsm_engine_sequential_reads_total", "Pages read sequentially.", c.SequentialReads)
	w.Counter("lsm_engine_pages_written_total", "Pages written.", c.PagesWritten)
	w.Counter("lsm_engine_cache_hits_total", "Buffer-cache hits.", c.CacheHits)
	w.Counter("lsm_engine_cache_misses_total", "Buffer-cache misses.", c.CacheMisses)
	w.Counter("lsm_engine_bloom_tests_total", "Bloom filter membership tests.", c.BloomTests)
	w.Counter("lsm_engine_bloom_negatives_total", "Bloom tests answered definitely-absent.", c.BloomNegatives)
	w.Counter("lsm_engine_key_comparisons_total", "B+-tree search comparisons.", c.KeyComparisons)
	w.Counter("lsm_engine_point_lookups_total", "Point lookups issued.", c.PointLookups)
	w.Counter("lsm_engine_entries_scanned_total", "Entries pulled through iterators.", c.EntriesScanned)
	w.Counter("lsm_engine_write_stalls_total", "Writes stalled by maintenance backpressure.", c.WriteStalls)
	w.Counter("lsm_engine_write_stall_seconds_total", "Total time writes spent stalled.", c.WriteStallNanos/1e9)
	w.Counter("lsm_engine_wal_fsyncs_total", "Fsyncs issued against the WAL area.", c.WALFsyncs)
	w.Counter("lsm_engine_group_commit_batches_total", "Commit groups closed by one covering fsync.", c.GroupCommitBatches)
	w.Counter("lsm_engine_group_commit_waiters_total", "Committed writes covered by commit groups.", c.GroupCommitWaiters)
	w.Counter("lsm_engine_read_cache_hits_total", "GETs answered from the read cache.", c.ReadCacheHits)
	w.Counter("lsm_engine_read_cache_misses_total", "GETs that fell through the read cache.", c.ReadCacheMisses)
	w.Counter("lsm_engine_read_cache_neg_hits_total", "GETs answered by a cached known-absent entry.", c.ReadCacheNegHits)
	w.Counter("lsm_engine_read_cache_invalidations_total", "Write-path read-cache invalidations.", c.ReadCacheInvalidations)

	j := s.db.MaintJournal().Summary()
	w.Counter("lsm_maintenance_flushes_total", "Completed flush operations.", j.Flushes)
	w.Counter("lsm_maintenance_flush_errors_total", "Flush operations that failed.", j.FlushErrors)
	w.Counter("lsm_maintenance_flush_seconds_total", "Total time spent flushing.", j.FlushNanos/1e9)
	w.Counter("lsm_maintenance_flush_bytes_total", "Bytes written by flushes.", j.FlushBytes)
	w.Counter("lsm_maintenance_flush_output_components_total", "Components produced by flushes.", j.FlushOutputComponents)
	w.Counter("lsm_maintenance_merges_total", "Completed merge operations.", j.Merges)
	w.Counter("lsm_maintenance_merge_errors_total", "Merge operations that failed.", j.MergeErrors)
	w.Counter("lsm_maintenance_merge_seconds_total", "Total time spent merging.", j.MergeNanos/1e9)
	w.Counter("lsm_maintenance_merge_bytes_total", "Bytes written by merges.", j.MergeBytes)
	w.Counter("lsm_maintenance_merge_input_components_total", "Components consumed by merges.", j.MergeInputComponents)
	w.Gauge("lsm_maintenance_active_flushes", "Flush operations in progress.", float64(j.ActiveFlushes))
	w.Gauge("lsm_maintenance_active_merges", "Merge operations in progress.", float64(j.ActiveMerges))

	if s.adm != nil {
		a := s.adm.Snapshot()
		w.Gauge("lsm_admission_budget", "Weighted in-flight admission budget.", float64(a.Budget))
		w.Gauge("lsm_admission_in_flight", "Weighted in-flight admitted work.", float64(a.InFlight))
		w.Gauge("lsm_admission_queued", "Requests waiting in the admission queue.", float64(a.Queued))
		w.Counter("lsm_admission_admitted_total", "Requests admitted.", a.Admitted)
		w.Counter("lsm_admission_admitted_after_wait_total", "Requests admitted after queueing.", a.AdmittedAfterWait)
		w.Counter("lsm_admission_shed_total", "Requests shed, by cause.", a.ShedQueueFull, "cause", "queue_full")
		w.Counter("lsm_admission_shed_total", "", a.ShedDeadline, "cause", "deadline")
		w.Counter("lsm_admission_shed_total", "", a.ShedFairShare, "cause", "fair_share")
		w.Counter("lsm_admission_shed_total", "", a.ShedRateLimited, "cause", "rate_limited")
		w.Histogram("lsm_admission_shed_duration_seconds",
			"Fail-fast latency of shed requests.", s.adm.ShedHist())
	}
	if s.gov != nil {
		g := s.gov.Snapshot()
		w.Gauge("lsm_governor_merge_rate", "Current merge-dispatch rate (jobs/s).", g.Rate)
		w.Gauge("lsm_governor_throttling", "1 while merge dispatch is throttled below the ceiling.", boolGauge(g.Throttling))
		w.Gauge("lsm_governor_last_p99_micros", "Foreground interval p99 at the last governor tick.", float64(g.LastP99Micros))
		w.Counter("lsm_governor_throttle_steps_total", "Governor rate-decrease steps.", g.ThrottleSteps)
		w.Counter("lsm_governor_recover_steps_total", "Governor rate-increase steps.", g.RecoverSteps)
	}

	if s.obs != nil {
		w.HistogramMap("lsm_request_duration_seconds",
			"Server-side request latency by op class.", "op", s.obs.OpSnapshots())
		w.HistogramMap("lsm_request_stage_duration_seconds",
			"Server-side time per request stage.", "stage", s.obs.StageSnapshots())
	}
	return w.Bytes()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
