package main

import (
	"math/rand"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

// The kernel probes call one layer's hot function directly, outside any
// engine, so a per-layer timing inside a replay can be explained by the
// cost of the kernel under it. Each is a fixed number of calls on inputs
// drawn from the workload's own trace with the workload seed.

// probeSink keeps the compiler from discarding the probed calls.
var probeSink float64

// probeGeo times the two candidate searches the engine runs per waiting
// rider — the radius search and the 16-nearest capped search — over the
// fleet's start positions, querying pickups sampled from the trace.
func probeGeo(grid *geo.Grid, starts []geo.Point, orders []trace.Order, seed int64) (withinUS, nearest16US float64) {
	const calls = 4000
	// 1,500 m is what a rider with the paper's ~125 s patience can be
	// reached from at the engine's 12 m/s radius speed.
	const radius = 1500.0
	ix := geo.NewIndex(grid)
	for i, p := range starts {
		ix.Insert(int32(i), grid.Bounds().Clamp(p))
	}
	rng := rand.New(rand.NewSource(seed))
	pickups := make([]geo.Point, calls)
	for i := range pickups {
		pickups[i] = orders[rng.Intn(len(orders))].Pickup
	}
	t0 := time.Now()
	for _, p := range pickups {
		probeSink += float64(len(ix.Within(p, radius)))
	}
	t1 := time.Now()
	for _, p := range pickups {
		probeSink += float64(len(ix.Nearest(p, 16, radius)))
	}
	t2 := time.Now()
	return t1.Sub(t0).Seconds() * 1e6 / calls, t2.Sub(t1).Seconds() * 1e6 / calls
}

// probeSSSP times full single-source shortest-path trees on the road
// graph peak_road prices on.
func probeSSSP(g *roadnet.Graph, seed int64) (usPerTree float64) {
	const trees = 200
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	for i := 0; i < trees; i++ {
		tree := g.ShortestPathTree(roadnet.NodeID(rng.Intn(g.NumNodes())))
		probeSink += tree[0]
	}
	return time.Since(t0).Seconds() * 1e6 / trees
}

// probeEIT times the birth-death expected-idle-time kernel over its
// three regimes (riders outpace drivers, drivers outpace riders,
// balanced).
func probeEIT() (nsPerCall float64) {
	const rounds = 20000
	m := queueing.NewDefault()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		probeSink += m.ExpectedIdleTime(0.5, 0.3, 100)
		probeSink += m.ExpectedIdleTime(0.2, 0.5, 40)
		probeSink += m.ExpectedIdleTime(0.3, 0.3, 25)
	}
	return time.Since(t0).Seconds() * 1e9 / (3 * rounds)
}
