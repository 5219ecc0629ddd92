package server

import (
	"repro/internal/obs"
)

// promExposition renders the full Prometheus text-format body served at
// GET /metrics: server counters, engine counters, maintenance journal
// totals and gauges, and — when observability is on — the per-op-class
// and per-stage latency histograms. The engine's stats and the three
// counter snapshots carry their own names and help (obs.PromWriter.Fields);
// the rows written here are the ones that come from elsewhere or carry
// labels.
func (s *Server) promExposition() []byte {
	var w obs.PromWriter

	w.Fields(s.counters.Snapshot())
	w.Counter("lsm_slow_requests_total", "Requests at or over the slow-request threshold.", int64(s.slow.Total()))

	st := s.db.Stats()
	w.Fields(st)
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
