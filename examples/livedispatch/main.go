// Live dispatch: orders stream into a running engine through a
// ChannelSource instead of being materialized upfront — the shape of a
// production ingestion path. A first wave of ride requests is submitted
// before the run and a second wave lands mid-run while the engine
// dispatches in 3-second batches; an Observer streams assignments and
// expiries as they happen, so nothing needs to be scraped from Metrics
// afterwards.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"mrvd"
)

func main() {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 28000, Seed: 11})
	grid := city.Grid()

	// The live edge: producers Submit, the engine Polls. Submit is safe
	// from any goroutine; the source buffers orders posted in the future
	// and releases each once the engine's clock reaches its PostTime.
	src := mrvd.NewChannelSource()

	rng := rand.New(rand.NewSource(42))
	box := grid.Bounds()
	point := func(cLng, cLat, spread float64) mrvd.Point {
		return box.Clamp(mrvd.Point{
			Lng: cLng + rng.NormFloat64()*spread,
			Lat: cLat + rng.NormFloat64()*spread,
		})
	}
	center := box.Center()
	nextID := 0
	submitWave := func(n int, from, span float64) {
		for i := 0; i < n; i++ {
			post := from + rng.Float64()*span
			o := mrvd.Order{
				ID:       mrvd.OrderID(nextID),
				PostTime: post,
				Pickup:   point(center.Lng-0.01, center.Lat+0.005, 0.008),
				Dropoff:  point(center.Lng+0.015, center.Lat-0.01, 0.012),
				Deadline: post + 120 + rng.Float64()*240,
			}
			nextID++
			if err := src.Submit(o); err != nil {
				log.Fatal(err)
			}
		}
	}

	// First wave before the engine starts; the second arrives mid-run,
	// triggered off the engine's own clock (below) so the demo is
	// deterministic. The first wave keeps riders waiting, and so the
	// unpaced clock running (it stands still while idle), until 900 s.
	submitWave(300, 0, 900)

	// Stream events instead of scraping metrics: count outcomes live,
	// print a progress line every simulated five minutes, and feed the
	// second wave once the engine's clock reaches the 15-minute mark.
	var assigned, expired int
	lastMinute := -1
	waveSent := false
	observer := mrvd.ObserverFuncs{
		Assigned: func(e mrvd.AssignedEvent) { assigned++ },
		Expired:  func(e mrvd.ExpiredEvent) { expired++ },
		BatchStart: func(e mrvd.BatchStartEvent) {
			if !waveSent && e.Now >= 900 {
				waveSent = true
				submitWave(300, e.Now, 900)
				src.Close() // stream ends after this wave
			}
			if min := int(e.Now) / 60; min > lastMinute && min%5 == 0 {
				lastMinute = min
				fmt.Printf("t=%4.0fs  waiting=%-4d available=%-4d assigned=%-5d expired=%d\n",
					e.Now, e.Waiting, e.Available, assigned, expired)
			}
		},
	}

	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(120),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(2*3600), // upper bound; Serve exits when drained
		mrvd.WithPrediction(mrvd.PredictNone, nil),
		mrvd.WithObserver(observer),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Position the fleet where the burst will happen — a live platform
	// knows its demand geography. Serve also accepts nil to sample
	// citywide starts.
	startRng := rand.New(rand.NewSource(7))
	starts := make([]mrvd.Point, 120)
	for i := range starts {
		starts[i] = box.Clamp(mrvd.Point{
			Lng: center.Lng + (startRng.Float64()-0.6)*0.03,
			Lat: center.Lat + (startRng.Float64()-0.4)*0.03,
		})
	}

	// A deadline guards the whole run; Ctrl-C-style cancellation works
	// the same way.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	m, err := svc.Serve(ctx, "IRG", src, starts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("streamed orders: %d\n", m.TotalOrders)
	fmt.Printf("served:          %d (%.1f%%)\n", m.Served, 100*m.ServiceRate())
	fmt.Printf("expired:         %d\n", m.Reneged)
	fmt.Printf("revenue:         %.0f paid seconds\n", m.Revenue)
	fmt.Printf("batches:         %d (engine exited once the stream drained)\n", m.Batches)
}
