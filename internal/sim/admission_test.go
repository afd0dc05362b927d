package sim

import (
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

// clusteredWave builds one admission wave shaped like real demand: a
// few pickup clusters, trips a couple of kilometres long, everything
// posted by t=0.
func clusteredWave(n int) []trace.Order {
	rng := rand.New(rand.NewSource(8))
	c := center()
	var orders []trace.Order
	for i := 0; i < n; i++ {
		anchor := offset(c, float64((i%4)*4000))
		pickup := offset(anchor, rng.Float64()*300)
		orders = append(orders, trace.Order{
			ID: trace.OrderID(i), PostTime: 0,
			Pickup:   pickup,
			Dropoff:  offset(pickup, 1500+rng.Float64()*1000),
			Deadline: 600,
		})
	}
	return orders
}

// clusterDrivers puts one driver on each of clusteredWave's four pickup
// anchors, so every rider of the wave holds a valid pair in the batch
// that admits it.
func clusterDrivers() []geo.Point {
	c := center()
	var drivers []geo.Point
	for k := 0; k < 4; k++ {
		drivers = append(drivers, offset(c, float64(k*4000)))
	}
	return drivers
}

// TestAdmissionWaveTripCostParity pins the bitwise contract of trip
// pricing: admission prices nothing, and the trips a batch prices for
// its newly paired riders — in dense Costs calls on a batch coster —
// must equal per-pair Cost queries exactly, for both built-in costers.
// One rider is admitted out of every driver's reach: its trip stays
// unpriced until a driver joins beside it and it holds its first valid
// pair, a batch later.
func TestAdmissionWaveTripCostParity(t *testing.T) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 20, Cols: 20, Seed: 23})
	late := offset(center(), -8000) // beyond the 7.2 km a 600 s deadline allows
	orders := append(clusteredWave(40), trace.Order{
		ID: 40, PostTime: 0, Pickup: late, Dropoff: offset(late, 2000), Deadline: 600,
	})
	for _, c := range []roadnet.Coster{roadnet.NewGraphCoster(g), roadnet.NewDefaultCoster()} {
		price := func(coster roadnet.Coster) []*Rider {
			cfg := simpleConfig()
			cfg.Coster = coster
			e := NewWithSource(cfg, NewSliceSource(orders), clusterDrivers())
			e.admitOrders(0)
			for _, r := range e.waiting {
				if !math.IsNaN(r.TripCost) {
					t.Fatalf("order %d: admission priced the trip (%v)", r.Order.ID, r.TripCost)
				}
			}
			e.buildContext(0)
			riders := e.waiting // nobody is assigned: every rider still waits
			for _, r := range riders[:40] {
				if math.IsNaN(r.TripCost) {
					t.Fatalf("order %d: trip unpriced in the batch of its first valid pair", r.Order.ID)
				}
			}
			if !math.IsNaN(riders[40].TripCost) {
				t.Fatalf("unpaired order 40 was priced: %v", riders[40].TripCost)
			}
			e.AddDriver(late, 3)
			if ctx := e.buildContext(3); len(ctx.Pairs) == 0 || ctx.Pairs[len(ctx.Pairs)-1].R != 40 {
				t.Fatal("order 40 holds no valid pair once a driver stands at its pickup")
			}
			return riders
		}
		batched := price(c)
		perPair := price(pairOnlyCoster{c})
		if len(batched) != len(orders) || len(perPair) != len(orders) {
			t.Fatalf("admitted %d/%d riders, want %d", len(batched), len(perPair), len(orders))
		}
		for i := range batched {
			if batched[i].TripCost != perPair[i].TripCost || math.IsNaN(batched[i].TripCost) {
				t.Fatalf("order %d: batched trip cost %v != per-pair %v",
					i, batched[i].TripCost, perPair[i].TripCost)
			}
		}
	}
}

// TestAdmissionWaveFewerComputations is the trip-side companion of
// TestBatchCostsFewerComputations: the first batch of a wave whose
// riders all hold valid pairs prices their pickup→dropoff trips in
// dense Costs calls, which must settle fewer Dijkstra nodes than the
// per-pair loop, whose every cache miss expands a full shortest-path
// tree while the batch run truncates at the wave's dropoffs. (The
// batch's pickup costs are priced on both sides too, from four
// drivers.)
func TestAdmissionWaveFewerComputations(t *testing.T) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 30, Cols: 30, Seed: 23})
	orders := clusteredWave(60)

	price := func(c roadnet.Coster) {
		cfg := simpleConfig()
		cfg.Coster = c
		e := NewWithSource(cfg, NewSliceSource(orders), clusterDrivers())
		e.admitOrders(0)
		e.buildContext(0)
		for _, r := range e.waiting {
			if math.IsNaN(r.TripCost) {
				t.Fatalf("order %d holds no valid pair: its trip was not priced", r.Order.ID)
			}
		}
	}
	batchC := roadnet.NewGraphCoster(g)
	price(batchC)
	pairC := roadnet.NewGraphCoster(g)
	price(pairOnlyCoster{pairC})

	b, p := batchC.Stats(), pairC.Stats()
	if b.SettledNodes == 0 || p.SettledNodes == 0 {
		t.Fatalf("instrumentation broken: batch settled %d, per-pair %d", b.SettledNodes, p.SettledNodes)
	}
	ratio := float64(p.SettledNodes) / float64(b.SettledNodes)
	t.Logf("first batch's pricing settled nodes: per-pair %d (%d full trees), batch %d (%d truncated runs) — %.2fx",
		p.SettledNodes, p.Trees, b.SettledNodes, b.PartialTrees, ratio)
	if ratio < 1.2 {
		t.Errorf("batched trip pricing saved too little shortest-path work: %.2fx, want >= 1.2x", ratio)
	}
}
