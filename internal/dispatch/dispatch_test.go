package dispatch

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

// buildTestContext hand-crafts a batch with two riders and two drivers:
// rider 0 is a long trip to a "hot" region (many predicted riders),
// rider 1 a short trip to a "cold" region (no future demand).
func buildTestContext() *sim.Context {
	grid := geo.NewGrid(geo.NYCBBox, 4, 4)
	n := grid.NumRegions()
	hot := 5
	cold := 10
	riders := []*sim.Rider{
		{TripCost: 1200, DestRegion: geo.RegionID(hot)},
		{TripCost: 300, DestRegion: geo.RegionID(cold)},
	}
	drivers := []*sim.Driver{{ID: 0}, {ID: 1}}
	ctx := &sim.Context{
		Now: 0, TC: 600, Grid: grid,
		Riders:  riders,
		Drivers: drivers,
		Pairs: []sim.Pair{
			{R: 0, D: 0, PickupCost: 60, TripCost: 1200, DestRegion: geo.RegionID(hot)},
			{R: 0, D: 1, PickupCost: 90, TripCost: 1200, DestRegion: geo.RegionID(hot)},
			{R: 1, D: 0, PickupCost: 30, TripCost: 300, DestRegion: geo.RegionID(cold)},
			{R: 1, D: 1, PickupCost: 40, TripCost: 300, DestRegion: geo.RegionID(cold)},
		},
		WaitingPerRegion:   make([]int, n),
		AvailablePerRegion: make([]int, n),
		Forecast:           newFixedForecast(n),
		RiderRegion:        []geo.RegionID{0, 0},
		DriverRegion:       []geo.RegionID{0, 0},
	}
	ctx.WaitingPerRegion[0] = 2
	ctx.AvailablePerRegion[0] = 2
	predicted(ctx).riders[hot] = 40 // hot destination
	predicted(ctx).riders[cold] = 0 // cold destination
	return ctx
}

// fixedForecast is a hand-built batch's Forecast: one prediction of
// each kind per region.
type fixedForecast struct{ riders, drivers []int }

func newFixedForecast(n int) fixedForecast {
	return fixedForecast{riders: make([]int, n), drivers: make([]int, n)}
}

func (f fixedForecast) Riders(k geo.RegionID) int  { return f.riders[k] }
func (f fixedForecast) Drivers(k geo.RegionID) int { return f.drivers[k] }

// predicted returns a hand-built batch's predictions, to set them.
func predicted(ctx *sim.Context) fixedForecast { return ctx.Forecast.(fixedForecast) }

// checkValid asserts structural validity of an assignment set.
func checkValid(t *testing.T, ctx *sim.Context, as []sim.Assignment) {
	t.Helper()
	seenR := map[int32]bool{}
	seenD := map[int32]bool{}
	for _, a := range as {
		if a.R < 0 || int(a.R) >= len(ctx.Riders) || a.D < 0 || int(a.D) >= len(ctx.Drivers) {
			t.Fatalf("assignment out of range: %+v", a)
		}
		if seenR[a.R] || seenD[a.D] {
			t.Fatalf("duplicate rider or driver: %+v", a)
		}
		seenR[a.R] = true
		seenD[a.D] = true
		if a.IgnorePickup {
			continue
		}
		found := false
		for _, p := range ctx.Pairs {
			if p.R == a.R && p.D == a.D {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("assignment not backed by a valid pair: %+v", a)
		}
	}
}

func TestAllDispatchersProduceValidAssignments(t *testing.T) {
	dispatchers := []sim.Dispatcher{
		&IRG{}, &LS{}, &SHORT{}, LTG{}, NEAR{}, &RAND{Seed: 1}, &POLAR{}, UPPER{},
	}
	for _, d := range dispatchers {
		ctx := buildTestContext()
		as := d.Assign(ctx)
		checkValid(t, ctx, as)
		if len(as) == 0 {
			t.Errorf("%s assigned nothing on a feasible batch", d.Name())
		}
	}
}

func TestIRGAssignsBothRiders(t *testing.T) {
	ctx := buildTestContext()
	as := (&IRG{}).Assign(ctx)
	if len(as) != 2 {
		t.Fatalf("IRG assigned %d pairs, want 2", len(as))
	}
}

func TestIRGPrefersHotRegionPair(t *testing.T) {
	// With one driver and both riders valid, IRG must pick the long trip
	// to the hot region (low idle ratio) over the short cold trip.
	ctx := buildTestContext()
	ctx.Drivers = ctx.Drivers[:1]
	ctx.Pairs = []sim.Pair{
		{R: 0, D: 0, PickupCost: 60, TripCost: 1200, DestRegion: ctx.Riders[0].DestRegion},
		{R: 1, D: 0, PickupCost: 30, TripCost: 300, DestRegion: ctx.Riders[1].DestRegion},
	}
	as := (&IRG{}).Assign(ctx)
	if len(as) != 1 || as[0].R != 0 {
		t.Errorf("IRG chose %+v, want the hot-region rider 0", as)
	}
}

func TestIRGEstimateIdleHotColdOrdering(t *testing.T) {
	ctx := buildTestContext()
	g := &IRG{}
	hot := g.EstimateIdle(ctx, ctx.Riders[0].DestRegion)
	cold := g.EstimateIdle(ctx, ctx.Riders[1].DestRegion)
	if hot >= cold {
		t.Errorf("hot ET %v should be below cold ET %v", hot, cold)
	}
}

func TestLTGPicksLongestTrip(t *testing.T) {
	ctx := buildTestContext()
	ctx.Drivers = ctx.Drivers[:1]
	ctx.Pairs = []sim.Pair{
		{R: 0, D: 0, PickupCost: 60, TripCost: 1200},
		{R: 1, D: 0, PickupCost: 30, TripCost: 300},
	}
	as := LTG{}.Assign(ctx)
	if len(as) != 1 || as[0].R != 0 {
		t.Errorf("LTG chose %+v, want rider 0 (longest trip)", as)
	}
}

func TestNEARPicksNearestPickup(t *testing.T) {
	ctx := buildTestContext()
	ctx.Drivers = ctx.Drivers[:1]
	ctx.Pairs = []sim.Pair{
		{R: 0, D: 0, PickupCost: 60, TripCost: 1200},
		{R: 1, D: 0, PickupCost: 30, TripCost: 300},
	}
	as := NEAR{}.Assign(ctx)
	if len(as) != 1 || as[0].R != 1 {
		t.Errorf("NEAR chose %+v, want rider 1 (nearest)", as)
	}
}

func TestRANDDeterministicPerSeed(t *testing.T) {
	a1 := (&RAND{Seed: 7}).Assign(buildTestContext())
	a2 := (&RAND{Seed: 7}).Assign(buildTestContext())
	if len(a1) != len(a2) {
		t.Fatal("same seed, different assignment count")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed, different assignments")
		}
	}
}

func TestUPPERServesMostExpensive(t *testing.T) {
	ctx := buildTestContext()
	ctx.Drivers = ctx.Drivers[:1] // k = min(2 riders, 1 driver) = 1
	as := UPPER{}.Assign(ctx)
	if len(as) != 1 {
		t.Fatalf("UPPER assigned %d, want 1", len(as))
	}
	if as[0].R != 0 || !as[0].IgnorePickup {
		t.Errorf("UPPER chose %+v, want most expensive rider 0 with IgnorePickup", as[0])
	}
	if as := (UPPER{}).Assign(&sim.Context{Grid: ctx.Grid}); as != nil {
		t.Errorf("UPPER on empty batch = %v", as)
	}
}

func TestLSImprovesOrMatchesSeedIdleRatioSum(t *testing.T) {
	// Seed LS with LTG (a deliberately bad seed for idle ratio) and
	// verify the total idle ratio does not increase.
	ctx := buildTestContext()
	model := queueing.NewDefault()
	seed := LTG{}
	seedAssign := seed.Assign(buildTestContext())
	ls := &LS{Model: model, Seed: LTG{}}
	lsAssign := ls.Assign(ctx)
	checkValid(t, ctx, lsAssign)

	ratioSum := func(as []sim.Assignment) float64 {
		a := buildAnalyzer(model, buildTestContext())
		sum := 0.0
		for _, x := range as {
			r := ctx.Riders[x.R]
			sum += a.IdleRatio(r.TripCost, int(r.DestRegion))
		}
		return sum
	}
	if ratioSum(lsAssign) > ratioSum(seedAssign)+1e-9 {
		t.Errorf("LS worsened the idle-ratio sum: %v -> %v",
			ratioSum(seedAssign), ratioSum(lsAssign))
	}
}

func TestLSConverges(t *testing.T) {
	// A larger random batch: LS must terminate well inside lsMaxIterations
	// and produce a valid assignment.
	rng := rand.New(rand.NewSource(5))
	grid := geo.NewGrid(geo.NYCBBox, 4, 4)
	n := grid.NumRegions()
	ctx := &sim.Context{
		Now: 0, TC: 600, Grid: grid,
		WaitingPerRegion:   make([]int, n),
		AvailablePerRegion: make([]int, n),
		Forecast:           newFixedForecast(n),
	}
	for r := 0; r < 30; r++ {
		ctx.Riders = append(ctx.Riders, &sim.Rider{
			TripCost:   200 + rng.Float64()*1800,
			DestRegion: geo.RegionID(rng.Intn(n)),
		})
		ctx.RiderRegion = append(ctx.RiderRegion, geo.RegionID(rng.Intn(n)))
	}
	for d := 0; d < 12; d++ {
		ctx.Drivers = append(ctx.Drivers, &sim.Driver{ID: sim.DriverID(d)})
		ctx.DriverRegion = append(ctx.DriverRegion, geo.RegionID(rng.Intn(n)))
	}
	for ri := range ctx.Riders {
		for di := range ctx.Drivers {
			if rng.Float64() < 0.4 {
				ctx.Pairs = append(ctx.Pairs, sim.Pair{
					R: int32(ri), D: int32(di),
					PickupCost: rng.Float64() * 100,
					TripCost:   ctx.Riders[ri].TripCost,
					DestRegion: ctx.Riders[ri].DestRegion,
				})
			}
		}
	}
	for k := 0; k < n; k++ {
		predicted(ctx).riders[k] = rng.Intn(20)
		predicted(ctx).drivers[k] = rng.Intn(10)
	}
	ls := &LS{}
	as := ls.Assign(ctx)
	checkValid(t, ctx, as)
	if len(as) == 0 {
		t.Error("LS assigned nothing")
	}
}

func TestPOLARUsesGuidance(t *testing.T) {
	ctx := buildTestContext()
	p := &POLAR{}
	as := p.Assign(ctx)
	checkValid(t, ctx, as)
	if len(as) != 2 {
		t.Errorf("POLAR assigned %d pairs, want 2", len(as))
	}
	// Blueprint must have been built.
	if !p.haveRun {
		t.Error("POLAR never built its blueprint")
	}
}

// endToEnd runs a shortage scenario through the real engine.
func endToEnd(t *testing.T, d sim.Dispatcher, seed int64) *sim.Metrics {
	t.Helper()
	city := workload.NewCity(workload.CityConfig{
		OrdersPerDay: 28000, Seed: 31, BaseWaitSeconds: 120,
	})
	rng := rand.New(rand.NewSource(seed))
	orders := city.GenerateDay(0, rng)
	// A 0.1-scale version of the paper's default setting (282K orders,
	// 1K drivers, tau=120s, Delta=3s): the shortage regime of Figure 7
	// where the queueing-aware methods differentiate.
	starts := city.InitialDrivers(100, orders, rng)
	exp := city.ExpectedDayCounts(0, 1200)
	cfg := sim.Config{
		Grid: city.Grid(), Delta: 3, TC: 1200, Horizon: 24 * 3600,
		PredictRiders: func(now, tc float64, k geo.RegionID) int {
			slot := int(now / 1200)
			if slot >= len(exp) {
				slot = len(exp) - 1
			}
			return int(exp[slot][k] + 0.5)
		},
	}
	m, err := sim.New(cfg, orders, starts).Run(context.Background(), d)
	if err != nil {
		t.Fatalf("%s: %v", d.Name(), err)
	}
	return m
}

func TestEndToEndRevenueOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end in -short mode")
	}
	// The paper averages 10 problem instances per data point (Section
	// 6.3); at this 0.1-scale city single-seed gaps are noise-sized, so
	// average three instances and assert the mean ordering.
	mean := func(mk func() sim.Dispatcher) float64 {
		total := 0.0
		for seed := int64(1); seed <= 3; seed++ {
			total += endToEnd(t, mk(), seed).Revenue
		}
		return total / 3
	}
	irg := mean(func() sim.Dispatcher { return &IRG{} })
	ls := mean(func() sim.Dispatcher { return &LS{} })
	rnd := mean(func() sim.Dispatcher { return &RAND{Seed: 1} })
	t.Logf("mean revenue: IRG=%.0f LS=%.0f RAND=%.0f", irg, ls, rnd)
	if irg <= rnd {
		t.Errorf("IRG mean (%.0f) did not beat RAND mean (%.0f)", irg, rnd)
	}
	if ls <= rnd {
		t.Errorf("LS mean (%.0f) did not beat RAND mean (%.0f)", ls, rnd)
	}
	// UPPER dominates every algorithm on each instance.
	upper := endToEnd(t, UPPER{}, 1)
	one := endToEnd(t, &IRG{}, 1)
	if upper.Revenue < one.Revenue {
		t.Errorf("UPPER (%.0f) below IRG (%.0f): bound violated", upper.Revenue, one.Revenue)
	}
}

func TestEndToEndIdleEstimatesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end in -short mode")
	}
	m := endToEnd(t, &IRG{}, 2)
	withEstimate := 0
	for _, rec := range m.IdleRecords {
		if !math.IsNaN(rec.Estimate) {
			withEstimate++
		}
	}
	if withEstimate == 0 {
		t.Fatal("no idle records carry a queueing estimate")
	}
}

func TestSHORTServesAtLeastAsManyAsLTGEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end in -short mode")
	}
	short := endToEnd(t, &SHORT{}, 3)
	ltg := endToEnd(t, LTG{}, 3)
	t.Logf("SHORT served=%d LTG served=%d", short.Served, ltg.Served)
	if short.Served < ltg.Served {
		t.Errorf("SHORT served %d < LTG %d; Appendix C expects SHORT to maximize count",
			short.Served, ltg.Served)
	}
}

func TestIRGMuUpdateAblationStillValid(t *testing.T) {
	ctx := buildTestContext()
	as := (&IRG{DisableMuUpdate: true}).Assign(ctx)
	checkValid(t, ctx, as)
	if len(as) != 2 {
		t.Errorf("frozen IRG assigned %d, want 2", len(as))
	}
}
