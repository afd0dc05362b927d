package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// idle assigns nothing.
type idle struct{}

func (idle) Name() string                             { return "idle" }
func (idle) Assign(ctx *sim.Context) []sim.Assignment { return nil }

// steadyState is what one measured stretch of batches did.
type steadyState struct {
	allocs  float64 // objects per batch
	served  int     // riders assigned during the measured batches
	waiting int     // riders still waiting at the end
}

// steadyStateAllocs warms an engine up for 64 batches of delta seconds
// under d, over the given fleet, grid and backlog of never-expiring
// orders — posted at t=0, every endpoint and driver start drawn inside
// box — then counts the objects one further StepAdmit+StepDispatch
// allocates.
func steadyStateAllocs(t *testing.T, d sim.Dispatcher, fleet, gridSide, backlog int, box geo.BBox, delta float64) steadyState {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	at := func() geo.Point {
		return geo.Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		}
	}
	starts := make([]geo.Point, fleet)
	for i := range starts {
		starts[i] = at()
	}
	orders := make([]trace.Order, backlog)
	for i := range orders {
		orders[i] = trace.Order{ID: trace.OrderID(i), Pickup: at(), Dropoff: at(), Deadline: 1e7}
	}
	const warmup = 64
	e := sim.New(sim.Config{Grid: geo.NewGrid(geo.NYCBBox, gridSide, gridSide), Delta: delta, Horizon: 1e6}, orders, starts)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	step := func() {
		e.StepAdmit(now)
		if err := e.StepDispatch(now, d); err != nil {
			t.Fatal(err)
		}
		now += delta
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	// AllocsPerRun divides as integers, so the ledger that grows with
	// every rejoin (IdleRecords) adds its few amortized doublings
	// without moving the count.
	before := e.Tally().Served
	allocs := testing.AllocsPerRun(200, step)
	waiting, _ := e.Counts()
	return steadyState{allocs: allocs, served: e.Tally().Served - before, waiting: waiting}
}

// TestBatchSteadyStateAllocs pins the fixed cost of a batch in objects:
// the engine owns its per-batch scratch (batchArena), its completion
// heap is typed, and IRG and LS keep theirs — heap, groupings and the
// returned assignments — across batches, so once warm a batch allocates
// its Context header and nothing that scales with the fleet, the region
// count, the number of waiting riders or the assignments it commits.
func TestBatchSteadyStateAllocs(t *testing.T) {
	nyc, delta := geo.NYCBBox, 1.0
	// An empty batch — no waiting rider, no due event — allocates the
	// Context header only.
	if got := steadyStateAllocs(t, idle{}, 300, 16, 0, nyc, delta); got.allocs > 1 {
		t.Errorf("empty batch allocates %.0f objects, want at most 1", got.allocs)
	}
	// A batch that searches, prices and pairs 40 waiting riders (every
	// driver is in reach of every rider) and assigns none: the same
	// count for a fleet and a grid eight and four times the size.
	small := steadyStateAllocs(t, idle{}, 50, 8, 40, nyc, delta)
	large := steadyStateAllocs(t, idle{}, 400, 16, 40, nyc, delta)
	for _, got := range []steadyState{small, large} {
		if got.waiting != 40 {
			t.Fatalf("%d riders waiting, want the whole backlog of 40", got.waiting)
		}
	}
	if small.allocs != large.allocs || large.allocs > 1 {
		t.Errorf("a 40-rider batch allocates %.0f objects on 50 drivers / 64 regions and %.0f on 400 / 256, want equal and at most 1", small.allocs, large.allocs)
	}
	// A batch that assigns: 50 drivers work through a 1,000-order backlog
	// of short trips inside a ~1.7 km square, 10 s batches. Serving more
	// riders than the fleet holds in the measured batches means drivers
	// completed trips and rejoined throughout — the completion heap, the
	// greedy's rescoring pushes and LS's regrouping all ran every batch.
	midtown := geo.BBox{MinLng: -73.99, MinLat: 40.74, MaxLng: -73.97, MaxLat: 40.755}
	for _, d := range []sim.Dispatcher{&dispatch.IRG{}, &dispatch.LS{}} {
		got := steadyStateAllocs(t, d, 50, 16, 1000, midtown, 10)
		if got.served <= 50 || got.waiting == 0 {
			t.Fatalf("%s: served %d riders in the measured batches with %d left waiting: want more than the fleet of 50 and a backlog to the end", d.Name(), got.served, got.waiting)
		}
		t.Logf("%s: %.0f objects per batch, %d riders served in 201 batches", d.Name(), got.allocs, got.served)
		if got.allocs > 1 {
			t.Errorf("%s: an assigning batch allocates %.0f objects, want at most 1", d.Name(), got.allocs)
		}
	}
}

// TestEmptyBatchesRetainNoMemory runs an engine with no orders for
// 1,000 and then 100,000 more empty batches: what it keeps per run must
// not grow with the batches it ran (a per-batch float64 would hold
// 800 KB after them). Not parallel: HeapAlloc counts the whole process.
func TestEmptyBatchesRetainNoMemory(t *testing.T) {
	starts := []geo.Point{{Lng: -73.98, Lat: 40.75}, {Lng: -73.95, Lat: 40.78}}
	e := sim.New(sim.Config{Grid: geo.NewGrid(geo.NYCBBox, 16, 16), Delta: 1, Horizon: 1e6}, nil, starts)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	run := func(batches int) uint64 {
		for range batches {
			e.StepAdmit(now)
			if err := e.StepDispatch(now, idle{}); err != nil {
				t.Fatal(err)
			}
			now++
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := run(1000)
	after := run(100_000)
	if m := e.Finish(); m.Batches != 101_000 || m.DispatchPhase.Count != 101_000 {
		t.Fatalf("ran %d batches, timed %d, want 101,000", m.Batches, m.DispatchPhase.Count)
	}
	if after > before && after-before >= 256<<10 {
		t.Errorf("100,000 empty batches grew the heap by %d bytes, want under 256 KiB", after-before)
	}
}

// TestLiveRidersRetainNoMemory is the busy companion of the test above:
// a live session behind a ChannelSource admits 10 orders a batch, every
// third canceled while the source still holds it, the rest reneging
// because the one driver stands out of reach, for 1,000 and then
// 100,000 more batches. The engine keeps a rider only until its
// terminal event, so the million orders of the measured stretch must
// not grow the heap (a pointer and an id-index entry per admitted order
// would hold over 100 MB). Not parallel: HeapAlloc counts the whole
// process.
func TestLiveRidersRetainNoMemory(t *testing.T) {
	const perBatch = 10
	src := sim.NewChannelSource()
	far := []geo.Point{{Lng: geo.NYCBBox.MaxLng, Lat: geo.NYCBBox.MaxLat}}
	e := sim.NewWithSource(sim.Config{Grid: geo.NewGrid(geo.NYCBBox, 16, 16), Delta: 1, Horizon: 1e7}, src, far)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	pickup := geo.Point{Lng: -73.98, Lat: 40.75}
	dropoff := geo.Point{Lng: -73.95, Lat: 40.77}
	now, id := 0.0, trace.OrderID(0)
	run := func(batches int) uint64 {
		for range batches {
			for k := range perBatch {
				if err := src.Submit(trace.Order{ID: id, PostTime: now, Pickup: pickup, Dropoff: dropoff, Deadline: now + 5}); err != nil {
					t.Fatal(err)
				}
				if k%3 == 0 {
					src.Cancel(id)
				}
				id++
			}
			e.StepAdmit(now)
			if err := e.StepDispatch(now, idle{}); err != nil {
				t.Fatal(err)
			}
			now++
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := run(1000)
	after := run(100_000)
	m := e.Finish()
	if m.TotalOrders != 1_010_000 || m.Canceled != 404_000 || m.Served != 0 || m.Reneged+m.Canceled+perBatch*6 < m.TotalOrders {
		t.Fatalf("admitted %d, canceled %d, served %d, reneged %d: want 1,010,000 admitted, 404,000 canceled, none served, the rest reneged but the last few batches'",
			m.TotalOrders, m.Canceled, m.Served, m.Reneged)
	}
	if after > before && after-before >= 4<<20 {
		t.Errorf("1,000,000 admitted orders grew the heap by %d bytes, want under 4 MiB", after-before)
	}
}

// firstPairs assigns each rider its first pair whose driver is still
// free, reading no prediction.
type firstPairs struct{ used map[int32]bool }

func (firstPairs) Name() string { return "first" }

func (f firstPairs) Assign(ctx *sim.Context) []sim.Assignment {
	clear(f.used)
	var out []sim.Assignment
	for _, p := range ctx.Pairs {
		if len(out) > 0 && out[len(out)-1].R == p.R || f.used[p.D] {
			continue
		}
		f.used[p.D] = true
		out = append(out, sim.Assignment{R: p.R, D: p.D})
	}
	return out
}

// TestUnreadForecastRetainsNoMemory: a live session whose dispatcher
// reads no prediction keeps its drivers shuttling between two regions
// for 1,000 and then 100,000 more batches. No region's forecast is ever
// computed — PredictRiders is never called — yet the scheduled rejoins
// stay bounded by the fleet: a region's past rejoins are dropped as it
// is appended to, not only as it is read (one time kept per trip would
// hold 80,000). The idle ledger, which grows with every trip by design,
// is why this test counts rejoins instead of the heap.
func TestUnreadForecastRetainsNoMemory(t *testing.T) {
	a, b := geo.Point{Lng: -73.985, Lat: 40.748}, geo.Point{Lng: -73.985, Lat: 40.752}
	grid := geo.NewGrid(geo.NYCBBox, 16, 16)
	if grid.Region(a) == grid.Region(b) {
		t.Fatal("the two stands share a region")
	}
	forecasts := 0
	src := sim.NewChannelSource()
	cfg := sim.Config{
		Grid: grid, Delta: 10, Horizon: 1e8,
		PredictRiders: func(now, tc float64, k geo.RegionID) int { forecasts++; return 0 },
	}
	starts := []geo.Point{a, a, b, b}
	e := sim.NewWithSource(cfg, src, starts)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	d := firstPairs{used: map[int32]bool{}}
	now, id := 0.0, trace.OrderID(0)
	maxRejoins := 0
	run := func(batches int) {
		for i := range batches {
			for _, trip := range [][2]geo.Point{{a, b}, {b, a}} {
				if err := src.Submit(trace.Order{ID: id, PostTime: now, Pickup: trip[0], Dropoff: trip[1], Deadline: now + 300}); err != nil {
					t.Fatal(err)
				}
				id++
			}
			e.StepAdmit(now)
			if err := e.StepDispatch(now, d); err != nil {
				t.Fatal(err)
			}
			now += cfg.Delta
			if i%1000 == 0 {
				held := 0
				for _, times := range e.RejoinTimes() {
					held += len(times)
				}
				maxRejoins = max(maxRejoins, held)
			}
		}
	}
	run(1000)
	run(100_000)
	m := e.Finish()
	t.Logf("served %d of %d orders; at most %d rejoins held", m.Served, m.TotalOrders, maxRejoins)
	if m.Served < 50_000 {
		t.Fatalf("served %d orders, want over 50,000: the fleet must keep shuttling", m.Served)
	}
	if forecasts != 0 {
		t.Errorf("PredictRiders called %d times by batches that read no prediction", forecasts)
	}
	if maxRejoins > 2*len(starts) {
		t.Errorf("%d rejoins held at once by a fleet of %d", maxRejoins, len(starts))
	}
}
