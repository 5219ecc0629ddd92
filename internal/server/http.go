package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/admission"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/lsmstore"
)

// StatsPayload is the GET /stats response body: the engine snapshot from
// lsmstore.Stats, the network service's own counters, and — when
// observability is on — percentile digests of the server-side latency
// histograms. The raw buckets are served once, by GET /metrics.
type StatsPayload struct {
	Engine lsmstore.Stats
	Server metrics.ServerSnapshot
	// SidecarLastError is the most recent HTTP accept-loop failure, so a
	// dead sidecar is diagnosable from the endpoint that still answers.
	SidecarLastError string `json:",omitempty"`
	// Latency and Stages are percentile digests per op class and per
	// request stage (microseconds).
	Latency map[string]obs.Summary `json:",omitempty"`
	Stages  map[string]obs.Summary `json:",omitempty"`
	// Admission is the admission controller's counters. Present only when
	// admission control is enabled.
	Admission *admission.Snapshot `json:",omitempty"`
}

// statsPayload assembles the /stats body.
func (s *Server) statsPayload() StatsPayload {
	p := StatsPayload{
		Engine:           s.db.Stats(),
		Server:           s.counters.Snapshot(),
		SidecarLastError: s.http.lastError(),
	}
	if s.obs != nil {
		p.Latency = obs.Summaries(s.obs.OpSnapshots())
		p.Stages = obs.Summaries(s.obs.StageSnapshots())
	}
	if s.adm != nil {
		snap := s.adm.Snapshot()
		p.Admission = &snap
	}
	return p
}

// slowPayload is the GET /debug/slow response body.
type slowPayload struct {
	ThresholdMillis int64           `json:"threshold_ms"`
	Total           uint64          `json:"total"`
	Entries         []obs.SlowEntry `json:"entries"`
}

// maintenancePayload is the GET /debug/maintenance response body.
type maintenancePayload struct {
	Summary obs.JournalSummary `json:"summary"`
	Pool    maintPoolStats     `json:"pool"`
	Shards  []maintShardGauges `json:"shards"`
	Events  []obs.JournalEvent `json:"events"`
}

type maintPoolStats struct {
	Queued  int `json:"queued"`
	Active  int `json:"active"`
	Workers int `json:"workers"`
}

type maintShardGauges struct {
	Shard               int `json:"shard"`
	PendingFlushBatches int `json:"pending_flush_batches"`
	FrozenMemtables     int `json:"frozen_memtables"`
}

// httpSidecar is the observability endpoint riding alongside the wire
// listener: GET /healthz for liveness probes, GET /stats for dashboards,
// GET /metrics for Prometheus scrapes, GET /debug/slow and
// GET /debug/maintenance for humans mid-incident, and (opt-in)
// /debug/pprof for profiles.
type httpSidecar struct {
	mu      sync.Mutex
	ln      net.Listener
	srv     *http.Server
	lastErr error
}

func (h *httpSidecar) start(addrStr string, s *Server) error {
	ln, err := net.Listen("tcp", addrStr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lsm:allow-discard a failed healthz write means the probe client hung up; there is no one left to report to
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.statsPayload())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//lsm:allow-discard a failed scrape write is the scraper hanging up; nothing to do about it
		w.Write(s.promExposition())
	})
	mux.HandleFunc("GET /debug/slow", func(w http.ResponseWriter, r *http.Request) {
		p := slowPayload{Entries: []obs.SlowEntry{}}
		if s.slow != nil {
			p.ThresholdMillis = s.slow.Threshold().Milliseconds()
			p.Total = s.slow.Total()
			p.Entries = s.slow.Entries()
		}
		writeJSON(w, p)
	})
	mux.HandleFunc("GET /debug/maintenance", func(w http.ResponseWriter, r *http.Request) {
		j := s.db.MaintJournal()
		p := maintenancePayload{Summary: j.Summary(), Events: j.Events()}
		if p.Events == nil {
			p.Events = []obs.JournalEvent{}
		}
		queued, active, workers := s.db.MaintPoolStats()
		p.Pool = maintPoolStats{Queued: queued, Active: active, Workers: workers}
		st := s.db.Stats()
		per := st.PerShard
		if len(per) == 0 {
			per = []lsmstore.Stats{st}
		}
		for i, sh := range per {
			p.Shards = append(p.Shards, maintShardGauges{
				Shard:               i,
				PendingFlushBatches: sh.PendingFlushBatches,
				FrozenMemtables:     sh.FrozenMemtables,
			})
		}
		writeJSON(w, p)
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	h.mu.Lock()
	h.ln, h.srv = ln, srv
	h.mu.Unlock()
	go func() {
		// Serve returns ErrServerClosed on every clean stop; anything else
		// is a real accept-loop failure worth surfacing on /stats.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.counters.Errors.Add(1)
			h.mu.Lock()
			h.lastErr = err
			h.mu.Unlock()
		}
	}()
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lsm:allow-discard an Encode failure here is the client hanging up mid-response; nothing to do about it
	enc.Encode(v)
}

// lastError reports the most recent sidecar accept-loop failure ("" when
// healthy).
func (h *httpSidecar) lastError() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastErr == nil {
		return ""
	}
	return h.lastErr.Error()
}

func (h *httpSidecar) addr() net.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return nil
	}
	return h.ln.Addr()
}

func (h *httpSidecar) stop() {
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	if srv != nil {
		//lsm:allow-discard best-effort teardown; Close errors from an already-dead listener are not actionable
		srv.Close()
	}
}
