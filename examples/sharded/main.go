// Sharded dispatch: the same simulated day replayed on the partitioned
// multi-engine runtime at 1, 2, 4 and 8 shards. Each shard owns a
// contiguous band of the city's regions and the slice of the fleet
// that starts there; a router admits every order to the shard owning
// its pickup region, and per-shard events and metrics aggregate back
// into one city-wide stream. The table shows how dispatch throughput
// scales while the served/revenue quality stays close to the 1-shard
// run — and the live session at the end submits orders through a
// sharded ServeHandle, the same path the HTTP gateway uses.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mrvd"
)

func main() {
	// A heavy serving day: 100K orders, a 2000-strong fleet, 20-second
	// dispatch batches capped at the 16 nearest candidate drivers per
	// rider — the scale where batch dispatch is the bottleneck and
	// partitioning pays.
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 100000, Seed: 11})

	// --- Part 1: replay scaling, 1 -> 8 shards ---------------------
	// Two throughput views: wall time (what one core realizes — the
	// engines interleave when GOMAXPROCS=1) and the dispatch critical
	// path (the slowest shard per round, summed — what parallel
	// hardware realizes, since shards dispatch concurrently).
	fmt.Println("replaying one simulated day (100K orders, 2000 drivers, IRG):")
	fmt.Println("shards  wall       dispatch   served  reneged  revenue   dispatch-speedup")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		svc, err := mrvd.NewService(
			mrvd.WithCity(city),
			mrvd.WithFleet(2000),
			mrvd.WithBatchInterval(20),
			mrvd.WithCandidateCap(16),
			mrvd.WithShards(shards),
			mrvd.WithPrediction(mrvd.PredictNone, nil),
		)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		m, err := svc.Run(context.Background(), "IRG")
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)
		dispatch := 0.0
		for _, s := range m.BatchSeconds {
			dispatch += s
		}
		if shards == 1 {
			base = dispatch
		}
		fmt.Printf("%6d  %-9s  %7.2fs  %6d  %7d  %8.0f   %.2fx\n",
			shards, wall.Round(time.Millisecond), dispatch,
			m.Served, m.Reneged, m.Revenue, base/dispatch)
	}

	// --- Part 2: a live sharded session ----------------------------
	// Orders submitted through the handle route to the shard owning
	// their pickup region; outcomes come back per order, exactly as in
	// a 1-shard session. CandidateBorrow lets frontier riders use a
	// neighbouring shard's idle drivers.
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(64),
		mrvd.WithShards(4),
		mrvd.WithBoundaryPolicy(mrvd.CandidateBorrow),
		mrvd.WithHorizon(7200),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
	)
	if err != nil {
		log.Fatal(err)
	}
	h, err := svc.Start(context.Background(), "NEAR", nil)
	if err != nil {
		log.Fatal(err)
	}

	box := city.Grid().Bounds()
	fmt.Println("\nlive sharded session (4 shards, candidate-borrow):")
	for i := 0; i < 6; i++ {
		// Spread pickups south to north so different shards serve them.
		frac := float64(i) / 5
		now := h.Clock()
		_, outcome, err := h.Submit(mrvd.Order{
			PostTime: now,
			Deadline: now + 900,
			Pickup:   mrvd.Point{Lng: box.MinLng + 0.4*(box.MaxLng-box.MinLng), Lat: box.MinLat + frac*(box.MaxLat-box.MinLat)},
			Dropoff:  box.Center(),
		})
		if err != nil {
			log.Fatal(err)
		}
		out := <-outcome
		fmt.Printf("  order %d: %s (driver %d, pickup %.0fs)\n",
			out.ID, out.State, out.Driver, out.PickupCost)
	}
	for i, s := range h.ShardStats() {
		fmt.Printf("  shard %d: regions=%d drivers=%d admitted=%d borrowed=%d served=%d\n",
			i, s.Regions, s.Drivers, s.Admitted, s.BorrowedIn, s.Served)
	}
	h.Close()
	if _, err := h.Result(); err != nil {
		log.Fatal(err)
	}
}
