package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// BenchmarkEngineBatch times the fixed cost of a batch that holds one
// waiting rider and no valid pair — most of a live session's batches —
// under IRG, on a 16x16 grid with 1,000 available drivers and a 64x64
// grid with 8,000. The drivers stand in the west half of the city, the
// riders post at its north-east corner with 5 s of patience, so no
// driver is in reach and each rider reneges before the next batch. One
// iteration is one StepAdmit plus StepDispatch.
func BenchmarkEngineBatch(b *testing.B) {
	for _, size := range []struct{ side, drivers int }{{16, 1000}, {64, 8000}} {
		b.Run(fmt.Sprintf("grid%dx%d/drivers%d", size.side, size.side, size.drivers), func(b *testing.B) {
			box := geo.NYCBBox
			rng := rand.New(rand.NewSource(1))
			starts := make([]geo.Point, size.drivers)
			for i := range starts {
				starts[i] = geo.Point{
					Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng)/2,
					Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
				}
			}
			corner := geo.Point{Lng: box.MaxLng, Lat: box.MaxLat}
			const delta = 10.0
			src := sim.NewChannelSource()
			e := sim.NewWithSource(sim.Config{Grid: geo.NewGrid(box, size.side, size.side), Delta: delta, Horizon: 1e12}, src, starts)
			if err := e.Begin(); err != nil {
				b.Fatal(err)
			}
			d := &dispatch.IRG{}
			now, id := 0.0, trace.OrderID(0)
			step := func() {
				if err := src.Submit(trace.Order{ID: id, PostTime: now, Pickup: corner, Dropoff: corner, Deadline: now + 5}); err != nil {
					b.Fatal(err)
				}
				id++
				e.StepAdmit(now)
				if err := e.StepDispatch(now, d); err != nil {
					b.Fatal(err)
				}
				now += delta
			}
			for range 64 {
				step()
			}
			if waiting, available := e.Counts(); waiting != 1 || available != size.drivers {
				b.Fatalf("%d riders waiting and %d drivers available, want 1 and %d", waiting, available, size.drivers)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
			b.StopTimer()
			if m := e.Tally(); m.Served != 0 {
				b.Fatalf("%d riders served: a batch held a pair", m.Served)
			}
		})
	}
}
