// Package server is the network edge of the dispatch engine: an
// HTTP/JSON gateway over a live mrvd.ServeHandle session.
//
// Endpoints:
//
//	POST /v1/orders        submit an order; ?wait=true long-polls for its
//	                       terminal outcome. A full pending queue returns
//	                       429 (admission control / backpressure), a
//	                       pickup or dropoff outside the city grid 400.
//	GET  /v1/orders/{id}   one order's live view (pending, assigned,
//	                       expired, canceled_by_rider, or canceled when
//	                       the session ended first)
//	DELETE /v1/orders/{id} rider-initiated cancel; 409 once terminal
//	GET  /v1/orders        every known order, sorted by id
//	GET  /v1/drivers       per-driver views (served, busy, position)
//	GET  /v1/events        dispatch events streamed as Server-Sent Events
//	GET  /v1/stats         engine counters, batch timings, coster cache stats
//	GET  /healthz          liveness (503 once the serve session has ended)
//
// Every order lives in the session's one ledger (ServeHandle.Store, a
// sim.StateStore): the long-poll's answer is the ledger's view of the
// order at the moment it turned terminal, so reads after it agree.
//
// The gateway stamps each order's PostTime off the engine clock (the
// latest batch boundary), so request patience counts engine seconds
// regardless of pacing; cmd/mrvd-serve runs the engine at WithPace(1)
// for wall-clock operation, and the load harness (internal/load) runs
// it faster for compressed benchmarking.
package server
