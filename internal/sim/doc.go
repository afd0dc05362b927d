// Package sim is the dynamic car-hailing simulator: it replays an order
// trace against a fleet of drivers under the paper's batch-based
// processing model (Algorithm 1). Every Delta seconds the engine collects
// waiting riders and available drivers, prunes candidate drivers per
// rider on the spatial index (patience radius, optional k-nearest cap),
// prices every rider's candidate drivers in one roadnet.PairCoster
// call (a sparse driver×rider pickup-cost matrix), and derives the valid rider-and-driver
// pairs of Definition 3 (driver can reach the pickup before the rider's
// deadline) as feasibility-filtered matrix lookups. The batch Context —
// pairs, matrix, per-region counts and predictions — goes to a
// pluggable Dispatcher. Committed assignments make drivers busy for the
// pickup leg plus the trip; riders not picked before their deadline
// renege.
//
// The engine reuses one per-batch arena for everything a Context
// carries; only the Context header is fresh memory each batch. A
// *Context and every slice reachable from it are therefore valid only
// until the Dispatcher, IdleEstimating or Repositioner call they were
// passed to returns — copy what must outlive it. The header being fresh
// is a contract too: dispatchers may key per-batch caches on the
// pointer.
//
// The engine keeps a per-driver idle ledger (idle time between rejoining
// the platform and the next assignment — the quantity Section 4's
// queueing model estimates) and per-batch wall-clock timings, which feed
// Tables 3 and Figures 7-10.
//
// Orders reach the engine through the OrderSource interface: SliceSource
// replays a fixed trace (the experiment setup) and ChannelSource accepts
// live Submit-driven ingestion from concurrent producers. Runs take a
// context.Context for cancellation and deadlines.
//
// Lifecycle facts (batch starts, assignments, pooled stops, cancels,
// expiries, declines, repositions) leave the engine one way, as Observer
// events: Config.Observer, the ObsConfig counters and spans (composed in
// front of it) and StateStore are folds over that stream; only wall-clock
// data (phase timings, the admission stamp) reaches the obs layer
// directly. Metrics is the engine's own tally, which shard.Stats copies.
package sim
