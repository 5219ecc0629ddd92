// Package server turns an embedded lsmstore.DB into a served system: a
// TCP listener speaking the internal/wire protocol, built for pipelining.
//
// # Connection model
//
// Each connection gets a reader goroutine and a writer goroutine. The
// reader decodes frames and hands each request to one of the connection's
// handler workers — a parked one if there is one, a new one if not — so
// requests on one connection execute concurrently and responses return in
// completion order, correlated by request ID — a client that pipelines N
// requests pays one round trip, not N. In-flight requests per connection
// are bounded (128, a constant): past the bound the reader stops reading,
// and TCP flow control pushes back on the client.
//
// A worker serves a request, then parks for the next one instead of
// exiting, so a request costs no goroutine start. A worker is started only
// when none is parked, and never past that bound, so a connection's parked
// workers are bounded by its peak in-flight count (a worker that has
// released its in-flight token but not yet parked can add one more, up to
// the bound); they exit when the connection closes. A served GET
// allocates nothing, client and server together: request and response
// frames and the client's call (channel and timer) are reused, and the
// client carves the decoded value from its connection's byte chunk.
//
// Every op is answered by one function, serveRequest: GET,
// SECONDARY_QUERY, FILTER_SCAN and APPLY_BATCH encode their reply into the
// pooled response frame from inside the engine's callback, while the
// engine's answer is still valid; every other op, a GET miss and every
// error are encoded after the engine call returns.
//
// # Writes
//
// A single write (upsert, insert, delete) runs on the handler worker that
// took it, straight into DB.Upsert, DB.Insert or DB.Delete, and is answered
// once it has committed. The server adds no batching layer: concurrent
// writers share WAL fsyncs through the engine's group commit. An
// APPLY_BATCH request is one DB.ApplyBatchWith call: its mutations are
// decoded into a list recycled with the receive buffer, and the engine's
// recycled per-mutation report is encoded into the response frame from
// inside the call, so a batch in steady state allocates nothing here or
// in the engine.
//
// # Lifecycle
//
// Shutdown drains gracefully: accepting stops, readers stop, in-flight
// requests finish and their responses flush, then connections close. Kill
// stops abruptly — connections drop, in-flight responses are lost — and
// leaves the DB untouched, so a killed server's data directory is exactly
// a crashed process image for recovery testing. Neither closes the DB;
// the caller owns its lifecycle, and post-Close requests surface as typed
// CodeClosed error frames.
//
// # Observability
//
// An optional HTTP sidecar (Config.HTTPAddr) serves GET /healthz for
// liveness and GET /stats: the lsmstore.Stats engine snapshot plus the
// server's own counters (connections, requests, errors).
package server
