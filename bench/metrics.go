package main

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units, with each end-to-end metric's direction and bound; the test
// holds the two together.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured by the untraced run, on every workload, and
// carry a bound in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"live_heap_mib", "MiB"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
}

// unboundedMetrics are the untraced run's wall-clock and CPU figures. On
// this sandbox they move by tens of percent with the host's load (README.md
// has the measurements), so no bound can be put on them: the run prints
// them, -reps summarises them, and BENCHMARK.json lists their traced-run
// counterparts, stack.*, among the per-layer metrics.
var unboundedMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"main_p50_us", "us"},
	{"cpu_us_per_op", "us"},
}

// perLayer are measured by the traced run. A metric whose layer the
// workload never enters reads 0 there.
var perLayer = []metricDef{
	{"stack.ops_per_s", "1/s"},
	{"stack.main_p50_us", "us"},
	{"stack.cpu_us_per_op", "us"},
	{"stack.live_heap_mib", "MiB"},
	{"lsmclient.main_p90_us", "us"},
	{"lsmclient.main_p99_us", "us"},
	{"lsmclient.write_p50_us", "us"},
	{"lsmclient.write_p99_us", "us"},
	{"lsmclient.roundtrip_self_us", "us"},
	{"wire.req_codec_ns", "ns"},
	{"wire.resp_codec_ns", "ns"},
	{"wire.allocs_per_msg", "count"},
	{"server.decode_us", "us"},
	{"server.coalesce_wait_us", "us"},
	{"server.engine_us", "us"},
	{"server.encode_us", "us"},
	{"server.write_us", "us"},
	{"server.self_us", "us"},
	{"server.coalesced_batch_size", "count"},
	{"lsmstore.get_us", "us"},
	{"lsmstore.upsert_us", "us"},
	{"lsmstore.apply_batch_us", "us"},
	{"lsmstore.secondary_query_us", "us"},
	{"lsmstore.filter_scan_us", "us"},
	{"lsmstore.cpu_us_per_op", "us"},
	{"lsmstore.allocs_per_op", "count"},
	{"lsmstore.open_s", "s"},
	{"lsmstore.recover_s", "s"},
	{"readcache.hit_rate", "ratio"},
	{"readcache.neg_hit_rate", "ratio"},
	{"readcache.invalidations_per_write", "count"},
	{"readcache.get_ns", "ns"},
	{"wal.group_size", "count"},
	{"wal.fsyncs_per_batch", "count"},
	{"wal.fsyncs_per_write", "count"},
	{"core.write_stalls_per_kop", "count"},
	{"core.stall_ms_per_s", "ms/s"},
	{"memtable.put_ns", "ns"},
	{"memtable.get_ns", "ns"},
	{"maint.flushes", "count"},
	{"maint.merges", "count"},
	{"maint.flush_ms_per_mib", "ms/MiB"},
	{"maint.merge_ms_per_mib", "ms/MiB"},
	{"maint.busy_frac", "ratio"},
	{"maint.merge_bytes_per_user_byte", "ratio"},
	{"lsm.components_at_end", "count"},
	{"bloom.tests_per_get", "count"},
	{"bloom.negative_rate", "ratio"},
	{"bloom.may_contain_ns", "ns"},
	{"btree.key_cmps_per_lookup", "count"},
	{"cache.hit_rate", "ratio"},
	{"filedev.random_reads_per_get", "count"},
	{"filedev.seq_reads_per_query", "count"},
	{"filedev.pages_written_per_user_kib", "count"},
	{"query.results_per_query", "count"},
	{"query.point_lookups_per_result", "count"},
	{"query.entries_scanned_per_result", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.generator_ns_per_op", "ns"},
}
