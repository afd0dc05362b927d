// Package shard is the session runtime every run goes through: it
// splits a city grid's regions across N independent sim.Engine
// instances — each owning a disjoint region set and the slice of the
// fleet that starts there — and steps them one after another, in
// lockstep batch rounds, on the one goroutine that runs the session.
// N is 1 by default: one engine over the whole city. Partitioning
// changes what a dispatcher can see (a rider's candidates are its
// shard's drivers), not how many cores a round uses.
//
// The pieces compose bottom-up:
//
//   - Partition deterministically assigns every region to exactly one
//     shard, balanced within one region, in contiguous row-major
//     stripes (the paper's queueing model is already per-region, so a
//     region is the natural unit of ownership).
//   - Router admits each live order to the shard owning its pickup
//     region. Its boundary policy decides what happens when a rider's
//     patience radius crosses a shard frontier: StrictOwnership always
//     keeps the order home, CandidateBorrow probes neighbouring shards'
//     available supply at batch-build time and routes the order to a
//     reachable shard when the owner has no feasible driver.
//   - Runtime owns the engines, drives the lockstep rounds, forwards
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
// A 1-shard Runtime is contractually equivalent to a bare
// sim.Engine.Run: same admissions, same events in the same order, same
// deterministic Metrics projection (see TestOneShardParity and its
// scenario and pooling siblings). That equality is why no product path
// runs an engine without the runtime.
package shard
