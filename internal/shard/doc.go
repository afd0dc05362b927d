// Package shard is a benchmark harness, not a session path: it splits a
// city grid's regions across N independent sim.Engine instances — each
// owning a disjoint region set and the slice of the fleet that starts
// there — and steps them one after another, in lockstep batch rounds,
// on the one goroutine that calls Run. Every product session runs one
// engine on sim.Engine.Run; only bench/'s peak_shard2 workload (through
// core.Runner.ShardSession) and this package's tests build a Runtime,
// and the package goes when that workload retires. Partitioning changes
// what a dispatcher can see (a rider's candidates are its shard's
// drivers), not how many cores a round uses.
//
// The harness serves the one configuration peak_shard2 runs: a plain
// replay with demand weights, an optional Observer and the k-nearest
// candidate cap. New returns an error for a cancelable order source, a
// scenario, pooling, a repositioner or the obs layer.
//
// The pieces compose bottom-up:
//
//   - Partition deterministically assigns every region to exactly one
//     shard, in contiguous row-major stripes balanced by demand weight
//     (the paper's queueing model is already per-region, so a region is
//     the natural unit of ownership).
//   - Runtime owns the engines, admits each order to the shard owning
//     its pickup region, drives the lockstep rounds, forwards
//     per-shard Observer events as one city-wide stream (driver
//     ids remapped to the global fleet numbering, one synthesized
//     city-wide BatchStart per round), re-homes idle drivers to the
//     shard owning the territory they stand in (fleet ownership
//     follows position — without it drivers strand wherever their
//     last dropoff crossed a frontier; an available driver never
//     moves, so each round looks only at the drivers that joined an
//     engine's available pool since its last dispatch step,
//     sim.Engine.EachJoined), and merges per-shard Metrics into one
//     aggregate identical in shape to a single engine's.
//
// A 1-shard Runtime is equivalent to sim.Engine.Run: same admissions,
// same events in the same order, same deterministic Metrics projection
// (see TestOneShardParity). bench/'s one_shard check relies on that
// equality.
package shard
