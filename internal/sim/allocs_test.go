package sim

import (
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// steadyStateAllocs warms an engine up for 64 batches over the given
// fleet, grid and backlog of never-expiring, never-served orders, then
// returns the objects one further StepAdmit+StepDispatch allocates.
func steadyStateAllocs(t *testing.T, fleet, gridSide, waiting int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	at := func() geo.Point {
		b := geo.NYCBBox
		return geo.Point{
			Lng: b.MinLng + rng.Float64()*(b.MaxLng-b.MinLng),
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
		}
	}
	starts := make([]geo.Point, fleet)
	for i := range starts {
		starts[i] = at()
	}
	orders := make([]trace.Order, waiting)
	for i := range orders {
		orders[i] = trace.Order{ID: trace.OrderID(i), Pickup: at(), Dropoff: at(), Deadline: 1e7}
	}
	const delta, warmup = 1.0, 64
	e := New(Config{Grid: geo.NewGrid(geo.NYCBBox, gridSide, gridSide), Delta: delta, Horizon: 1e6}, orders, starts)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	step := func() {
		e.StepAdmit(now)
		if err := e.StepDispatch(now, noop{}); err != nil {
			t.Fatal(err)
		}
		now += delta
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	// The per-batch dispatch timing is the one ledger that grows with
	// every batch; give it room so its amortized doubling stays out of
	// the count.
	e.metrics.BatchSeconds = append(make([]float64, 0, 4096), e.metrics.BatchSeconds...)
	allocs := testing.AllocsPerRun(200, step)
	if w, _ := e.Counts(); w != waiting {
		t.Fatalf("%d riders waiting, want the whole backlog of %d", w, waiting)
	}
	return allocs
}

// TestBatchSteadyStateAllocs pins the fixed cost of a batch in objects:
// the engine owns its per-batch scratch (batchArena), so once warm a
// batch allocates its Context header and nothing that scales with the
// fleet, the region count or the number of waiting riders.
func TestBatchSteadyStateAllocs(t *testing.T) {
	// An empty batch — no waiting rider, no due event — allocates the
	// Context header only.
	if got := steadyStateAllocs(t, 300, 16, 0); got > 1 {
		t.Errorf("empty batch allocates %.0f objects, want at most 1", got)
	}
	// A batch that searches, prices and pairs 40 waiting riders (every
	// driver is in reach of every rider) and assigns none: the same
	// count for a fleet and a grid eight and four times the size.
	small := steadyStateAllocs(t, 50, 8, 40)
	large := steadyStateAllocs(t, 400, 16, 40)
	if small != large || large > 1 {
		t.Errorf("a 40-rider batch allocates %.0f objects on 50 drivers / 64 regions and %.0f on 400 / 256, want equal and at most 1", small, large)
	}
}
