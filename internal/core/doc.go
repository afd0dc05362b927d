// Package core wires the framework of Section 3 together: the offline
// demand prediction (package predict), the per-region queueing analysis
// (package queueing), the batch dispatch algorithms (package dispatch)
// and the simulator (package sim) — i.e., Algorithm 1 end to end. A
// Runner owns one configured city and executes named algorithms over a
// simulated day, feeding the dispatcher per-region demand predictions
// from a trained model, the realized history, or the noiseless oracle.
// Every run is one sim.Engine on its own loop, Engine.Run, assembled in
// one place, Runner.engine; runs are context-aware (cancellation between
// batches) and can consume streaming order sources (Runner.Session).
// Runner.ShardSession builds the N-engine lockstep harness (package
// shard) that only bench/'s peak_shard2 workload still runs.
//
// Sweep is the one grid executor: a (layer × seed × fleet × series)
// grid, where a series is a labelled dispatcher with its own forecast
// source and a layer any overlay of Options, runs on one bounded
// worker pool with each problem instance built once, each (city, seed)
// history built once and each predictor trained once per (city, seed,
// name), and deterministic results in grid order. Service.Sweep and the
// experiment presets (package experiments, via experiments/matrix) are
// its two callers.
package core
