package server

import (
	"repro/internal/obs"
)

// promExposition renders the full Prometheus text-format body served at
// GET /metrics: server counters, engine counters, maintenance journal
// totals and gauges, and — when observability is on — the per-op-class
// and per-stage latency histograms. The three counter snapshots carry
// their own names and help (obs.PromWriter.Fields); the rows written here
// are the ones that come from elsewhere or carry labels.
func (s *Server) promExposition() []byte {
	var w obs.PromWriter

	w.Fields(s.counters.Snapshot())
	w.Counter("lsm_slow_requests_total", "Requests at or over the slow-request threshold.", int64(s.slow.Total()))

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
	w.Gauge("lsm_engine_read_cache_bytes", "Memory the read cache holds: its record chunks and its index.", float64(st.ReadCacheBytes))
	w.Fields(st.Counters)
	w.Fields(s.db.MaintJournal().Summary())

	if s.adm != nil {
		a := s.adm.Snapshot()
		w.Gauge("lsm_admission_budget", "Weighted in-flight admission budget.", float64(a.Budget))
		w.Gauge("lsm_admission_in_flight", "Weighted in-flight admitted work.", float64(a.InFlight))
		w.Gauge("lsm_admission_queued", "Requests waiting in the admission queue.", float64(a.Queued))
		w.Counter("lsm_admission_admitted_total", "Requests admitted.", a.Admitted)
		w.Counter("lsm_admission_admitted_after_wait_total", "Requests admitted after queueing.", a.AdmittedAfterWait)
		w.Counter("lsm_admission_shed_total", "Requests shed, by cause.", a.ShedQueueFull, "cause", "queue_full")
		w.Counter("lsm_admission_shed_total", "", a.ShedDeadline, "cause", "deadline")
		w.Histogram("lsm_admission_shed_duration_seconds",
			"Fail-fast latency of shed requests.", s.adm.ShedHist())
	}
	if s.obs != nil {
		w.HistogramMap("lsm_request_duration_seconds",
			"Server-side request latency by op class.", "op", s.obs.OpSnapshots())
		w.HistogramMap("lsm_request_stage_duration_seconds",
			"Server-side time per request stage.", "stage", s.obs.StageSnapshots())
	}
	return w.Bytes()
}
