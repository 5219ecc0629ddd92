package server_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestMetricsExpositionNames pins the /metrics surface a scraper sees —
// every metric name, its type and its help string — with admission and the
// read cache on, so each optional family is present. The list is sorted, so
// it does not pin the order families are written in.
func TestMetricsExpositionNames(t *testing.T) {
	opts := storeOptions()
	opts.ReadCache.Bytes = 1 << 20
	srv, _ := startServer(t, opts, func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.AdmissionBudget = 64
	})
	doRequests(t, srv)

	var got []string
	for _, line := range strings.Split(scrape(t, srv), "\n") {
		if strings.HasPrefix(line, "# ") {
			got = append(got, line)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, wantExposition) {
		for _, line := range got {
			t.Logf("%q,", line)
		}
		t.Fatalf("/metrics headers differ from the pinned list (%d lines, want %d)", len(got), len(wantExposition))
	}
}

// TestSecondsTotalsAreFractional: a maintenance or stall total is served in
// seconds with its fraction, so one sub-second flush does not read as 0.
func TestSecondsTotalsAreFractional(t *testing.T) {
	srv, _ := startServer(t, storeOptions(), func(cfg *server.Config) {
		cfg.HTTPAddr = "127.0.0.1:0"
	})
	c := dial(t, srv)
	for i := uint64(0); i < 8; i++ {
		pk, rec := tweet(i)
		if err := c.Upsert(pk, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	const name = "lsm_maintenance_flush_seconds_total"
	for _, line := range strings.Split(scrape(t, srv), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			if f, err := strconv.ParseFloat(v, 64); err != nil || f <= 0 {
				t.Fatalf("%s = %q after one flush, want > 0", name, v)
			}
			return
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
}

// scrape returns the /metrics body.
func scrape(t *testing.T, srv *server.Server) string {
	t.Helper()
	_, body := httpGet(t, "http://"+srv.HTTPAddr().String()+"/metrics")
	return string(body)
}

var wantExposition = []string{
	"# HELP lsm_active_connections Connections currently open.",
	"# HELP lsm_admission_admitted_after_wait_total Requests admitted after queueing.",
	"# HELP lsm_admission_admitted_total Requests admitted.",
	"# HELP lsm_admission_budget Weighted in-flight admission budget.",
	"# HELP lsm_admission_in_flight Weighted in-flight admitted work.",
	"# HELP lsm_admission_queued Requests waiting in the admission queue.",
	"# HELP lsm_admission_shed_duration_seconds Fail-fast latency of shed requests.",
	"# HELP lsm_admission_shed_total Requests shed, by cause.",
	"# HELP lsm_buffer_cache_frame_allocs_total Buffer-cache frames allocated in any size class.",
	"# HELP lsm_buffer_cache_frame_reuses_total Buffer-cache misses read into a recycled frame.",
	"# HELP lsm_buffer_cache_pinned_evictions_total Buffer-cache evictions of a page a reader still pinned.",
	"# HELP lsm_coalesced_batches_total Retired, always 0; kept for bench/trace.go until ROADMAP 1(e).",
	"# HELP lsm_coalesced_writes_total Retired, always 0; kept for bench/trace.go until ROADMAP 1(e).",
	"# HELP lsm_connections_total Connections accepted since start.",
	"# HELP lsm_engine_bloom_negatives_total Bloom tests answered definitely-absent.",
	"# HELP lsm_engine_bloom_tests_total Bloom filter membership tests.",
	"# HELP lsm_engine_cache_hits_total Buffer-cache hits.",
	"# HELP lsm_engine_cache_misses_total Buffer-cache misses.",
	"# HELP lsm_engine_component_bytes Bytes of the component files the current component lists name, across shards.",
	"# HELP lsm_engine_disk_bytes_written_total Bytes written to the storage device.",
	"# HELP lsm_engine_entries_scanned_total Entries pulled through iterators.",
	"# HELP lsm_engine_frozen_memtables Frozen memtables not yet installed across shards.",
	"# HELP lsm_engine_group_commit_batches_total Commit groups closed by one covering fsync.",
	"# HELP lsm_engine_group_commit_waiters_total Committed writes covered by commit groups.",
	"# HELP lsm_engine_ignored_total Duplicate inserts ignored.",
	"# HELP lsm_engine_ingested_total Records ingested.",
	"# HELP lsm_engine_key_comparisons_total B+-tree search comparisons.",
	"# HELP lsm_engine_page_bytes_read_total Page bytes read from the device.",
	"# HELP lsm_engine_pages_written_total Pages written.",
	"# HELP lsm_engine_pending_flush_batches Frozen batches queued for flush across shards.",
	"# HELP lsm_engine_point_lookups_total Point lookups issued.",
	"# HELP lsm_engine_primary_components On-disk primary components across shards.",
	"# HELP lsm_engine_random_reads_total Pages read at random positions.",
	"# HELP lsm_engine_read_cache_bytes Memory the read cache holds: its record chunks and its index.",
	"# HELP lsm_engine_read_cache_hits_total GETs answered from the read cache.",
	"# HELP lsm_engine_read_cache_invalidations_total Write-path read-cache invalidations.",
	"# HELP lsm_engine_read_cache_misses_total GETs that fell through the read cache.",
	"# HELP lsm_engine_read_cache_neg_hits_total GETs answered by a cached known-absent entry.",
	"# HELP lsm_engine_retired_files Files of merged-away components not yet unlinked (pinned by a reader or awaiting the manifest).",
	"# HELP lsm_engine_sequential_reads_total Pages read sequentially.",
	"# HELP lsm_engine_wal_bytes Bytes of write-ahead log no durable flush covers yet, across shards.",
	"# HELP lsm_engine_wal_fsyncs_total Fsyncs issued against the WAL area.",
	"# HELP lsm_engine_write_stall_seconds_total Total time writes spent stalled.",
	"# HELP lsm_engine_write_stalls_total Writes stalled by maintenance backpressure.",
	"# HELP lsm_maintenance_active_flushes Flush operations in progress.",
	"# HELP lsm_maintenance_active_merges Merge operations in progress.",
	"# HELP lsm_maintenance_flush_bytes_total Bytes written by flushes.",
	"# HELP lsm_maintenance_flush_errors_total Flush operations that failed.",
	"# HELP lsm_maintenance_flush_output_components_total Components produced by flushes.",
	"# HELP lsm_maintenance_flush_seconds_total Total time spent flushing.",
	"# HELP lsm_maintenance_flushes_total Completed flush operations.",
	"# HELP lsm_maintenance_merge_bytes_total Bytes written by merges.",
	"# HELP lsm_maintenance_merge_errors_total Merge operations that failed.",
	"# HELP lsm_maintenance_merge_input_components_total Components consumed by merges.",
	"# HELP lsm_maintenance_merge_seconds_total Total time spent merging.",
	"# HELP lsm_maintenance_merges_total Completed merge operations.",
	"# HELP lsm_request_duration_seconds Server-side request latency by op class.",
	"# HELP lsm_request_errors_total Requests answered with an error frame.",
	"# HELP lsm_request_stage_duration_seconds Server-side time per request stage.",
	"# HELP lsm_requests_total Requests decoded and dispatched.",
	"# HELP lsm_slow_requests_total Requests at or over the slow-request threshold.",
	"# TYPE lsm_active_connections gauge",
	"# TYPE lsm_admission_admitted_after_wait_total counter",
	"# TYPE lsm_admission_admitted_total counter",
	"# TYPE lsm_admission_budget gauge",
	"# TYPE lsm_admission_in_flight gauge",
	"# TYPE lsm_admission_queued gauge",
	"# TYPE lsm_admission_shed_duration_seconds histogram",
	"# TYPE lsm_admission_shed_total counter",
	"# TYPE lsm_buffer_cache_frame_allocs_total counter",
	"# TYPE lsm_buffer_cache_frame_reuses_total counter",
	"# TYPE lsm_buffer_cache_pinned_evictions_total counter",
	"# TYPE lsm_coalesced_batches_total counter",
	"# TYPE lsm_coalesced_writes_total counter",
	"# TYPE lsm_connections_total counter",
	"# TYPE lsm_engine_bloom_negatives_total counter",
	"# TYPE lsm_engine_bloom_tests_total counter",
	"# TYPE lsm_engine_cache_hits_total counter",
	"# TYPE lsm_engine_cache_misses_total counter",
	"# TYPE lsm_engine_component_bytes gauge",
	"# TYPE lsm_engine_disk_bytes_written_total counter",
	"# TYPE lsm_engine_entries_scanned_total counter",
	"# TYPE lsm_engine_frozen_memtables gauge",
	"# TYPE lsm_engine_group_commit_batches_total counter",
	"# TYPE lsm_engine_group_commit_waiters_total counter",
	"# TYPE lsm_engine_ignored_total counter",
	"# TYPE lsm_engine_ingested_total counter",
	"# TYPE lsm_engine_key_comparisons_total counter",
	"# TYPE lsm_engine_page_bytes_read_total counter",
	"# TYPE lsm_engine_pages_written_total counter",
	"# TYPE lsm_engine_pending_flush_batches gauge",
	"# TYPE lsm_engine_point_lookups_total counter",
	"# TYPE lsm_engine_primary_components gauge",
	"# TYPE lsm_engine_random_reads_total counter",
	"# TYPE lsm_engine_read_cache_bytes gauge",
	"# TYPE lsm_engine_read_cache_hits_total counter",
	"# TYPE lsm_engine_read_cache_invalidations_total counter",
	"# TYPE lsm_engine_read_cache_misses_total counter",
	"# TYPE lsm_engine_read_cache_neg_hits_total counter",
	"# TYPE lsm_engine_retired_files gauge",
	"# TYPE lsm_engine_sequential_reads_total counter",
	"# TYPE lsm_engine_wal_bytes gauge",
	"# TYPE lsm_engine_wal_fsyncs_total counter",
	"# TYPE lsm_engine_write_stall_seconds_total counter",
	"# TYPE lsm_engine_write_stalls_total counter",
	"# TYPE lsm_maintenance_active_flushes gauge",
	"# TYPE lsm_maintenance_active_merges gauge",
	"# TYPE lsm_maintenance_flush_bytes_total counter",
	"# TYPE lsm_maintenance_flush_errors_total counter",
	"# TYPE lsm_maintenance_flush_output_components_total counter",
	"# TYPE lsm_maintenance_flush_seconds_total counter",
	"# TYPE lsm_maintenance_flushes_total counter",
	"# TYPE lsm_maintenance_merge_bytes_total counter",
	"# TYPE lsm_maintenance_merge_errors_total counter",
	"# TYPE lsm_maintenance_merge_input_components_total counter",
	"# TYPE lsm_maintenance_merge_seconds_total counter",
	"# TYPE lsm_maintenance_merges_total counter",
	"# TYPE lsm_request_duration_seconds histogram",
	"# TYPE lsm_request_errors_total counter",
	"# TYPE lsm_request_stage_duration_seconds histogram",
	"# TYPE lsm_requests_total counter",
	"# TYPE lsm_slow_requests_total counter",
}
