// Package core wires the framework of Section 3 together: the offline
// demand prediction (package predict), the per-region queueing analysis
// (package queueing), the batch dispatch algorithms (package dispatch)
// and the simulator (package sim) — i.e., Algorithm 1 end to end. A
// Runner owns one configured city and executes named algorithms over a
// simulated day, feeding the dispatcher per-region demand predictions
// from a trained model, the realized history, or the noiseless oracle.
// Every run is a 1..N-shard session (package shard) assembled in one
// place, Runner.session; runs are context-aware (cancellation between
// batches), can consume streaming order sources (ShardSession), and
// Sweep executes whole (algorithm × seed × fleet) grids on a parallel
// worker pool with per-seed history sharing and deterministic results.
package core
