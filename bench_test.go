package mrvd

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"mrvd/internal/dispatch"
	"mrvd/internal/matching"
	"mrvd/internal/obs"
	"mrvd/internal/pool"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// --- Microbenchmarks of the hot substrates ---

func BenchmarkQueueingExpectedIdleTime(b *testing.B) {
	m := queueing.NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One call per regime.
		_ = m.ExpectedIdleTime(0.5, 0.3, 100)
		_ = m.ExpectedIdleTime(0.2, 0.5, 40)
		_ = m.ExpectedIdleTime(0.3, 0.3, 25)
	}
}

func BenchmarkHungarian64x64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([][]float64, 64)
	for i := range w {
		w[i] = make([]float64, 64)
		for j := range w[i] {
			w[i][j] = rng.Float64() * 1000
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MaxWeight(w)
	}
}

func BenchmarkDijkstraGridNetwork(b *testing.B) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		g.ShortestPath(src, dst)
	}
}

func BenchmarkWorkloadGenerateDay(b *testing.B) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		city.GenerateDay(0, rng)
	}
}

// BenchmarkBatchIRG measures a single realistic batch decision: ~200
// waiting riders, ~80 available drivers, valid pairs precomputed.
func BenchmarkBatchIRG(b *testing.B) {
	ctx := syntheticBatch(200, 80, 12)
	g := &dispatch.IRG{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Assign(ctx)
	}
}

func BenchmarkBatchLS(b *testing.B) {
	ctx := syntheticBatch(200, 80, 12)
	l := &dispatch.LS{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Assign(ctx)
	}
}

// syntheticBatch fabricates a dispatch context with the given rider and
// driver counts and candidate fan-out.
func syntheticBatch(riders, drivers, fanout int) *sim.Context {
	rng := rand.New(rand.NewSource(7))
	grid := NewNYCGrid()
	n := grid.NumRegions()
	ctx := &sim.Context{
		Now: 8 * 3600, TC: 1200, Grid: grid,
		WaitingPerRegion:   make([]int, n),
		AvailablePerRegion: make([]int, n),
		PredictedRiders:    make([]int, n),
		PredictedDrivers:   make([]int, n),
	}
	for k := 0; k < n; k++ {
		ctx.PredictedRiders[k] = rng.Intn(30)
		ctx.PredictedDrivers[k] = rng.Intn(12)
	}
	for r := 0; r < riders; r++ {
		region := RegionID(rng.Intn(n))
		ctx.Riders = append(ctx.Riders, &sim.Rider{
			TripCost:   120 + rng.Float64()*1800,
			DestRegion: RegionID(rng.Intn(n)),
		})
		ctx.RiderRegion = append(ctx.RiderRegion, region)
		ctx.WaitingPerRegion[region]++
	}
	for d := 0; d < drivers; d++ {
		region := RegionID(rng.Intn(n))
		ctx.Drivers = append(ctx.Drivers, &sim.Driver{ID: sim.DriverID(d)})
		ctx.DriverRegion = append(ctx.DriverRegion, region)
		ctx.AvailablePerRegion[region]++
	}
	for r := 0; r < riders; r++ {
		for f := 0; f < fanout; f++ {
			ctx.Pairs = append(ctx.Pairs, sim.Pair{
				R: int32(r), D: int32(rng.Intn(drivers)),
				PickupCost: rng.Float64() * 110,
				TripCost:   ctx.Riders[r].TripCost,
				DestRegion: ctx.Riders[r].DestRegion,
			})
		}
	}
	return ctx
}

// BenchmarkBatchCosts prices one 200-driver x 200-order batch on the
// road network through both query paths. Each iteration prices on a
// fresh coster, built outside the timer, so both are cold batches
// whatever -benchtime says; the extra "settled/op" metric counts
// Dijkstra-settled nodes — the shortest-path work the batch path saves
// by deduplicating snapped sources and stopping each tree at the
// batch's targets (the committed BENCH_dispatch.json baseline shows the
// ratio).
func BenchmarkBatchCosts(b *testing.B) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 1})
	box := NYCBBox
	cx, cy := (box.MinLng+box.MaxLng)/2, (box.MinLat+box.MaxLat)/2
	w, h := (box.MaxLng-box.MinLng)/8, (box.MaxLat-box.MinLat)/8
	rng := rand.New(rand.NewSource(13))
	randPoint := func() Point {
		return Point{Lng: cx - w + rng.Float64()*2*w, Lat: cy - h + rng.Float64()*2*h}
	}
	drivers := make([]Point, 200)
	orders := make([]Point, 200)
	for i := range drivers {
		drivers[i] = randPoint()
	}
	for i := range orders {
		orders[i] = randPoint()
	}

	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		var settled int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := roadnet.NewGraphCoster(g)
			b.StartTimer()
			c.Costs(drivers, orders)
			settled += c.Stats().SettledNodes
		}
		b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	})
	b.Run("PerPair", func(b *testing.B) {
		b.ReportAllocs()
		var settled int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := roadnet.NewGraphCoster(g)
			b.StartTimer()
			for _, d := range drivers {
				for _, o := range orders {
					c.Cost(d, o)
				}
			}
			settled += c.Stats().SettledNodes
		}
		b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	})
}

// BenchmarkScenarioDispatch measures the disruption layer's cost: one
// peak hour of a 28K-order day at 200 drivers, dispatched with the
// scenario off (zero ScenarioConfig) and on (cancellations + declines
// + travel noise). The Off case asserts the zero-overhead contract
// behaviorally — its Summary must be byte-identical to a run built
// without any scenario plumbing at all — and the committed
// BENCH_scenario.json baseline tracks the On/Off timing ratio (~1x:
// the disruption layer is a nil check on the scenario-free path and a
// few RNG draws per order on the enabled one).
func BenchmarkScenarioDispatch(b *testing.B) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	day := city.GenerateDay(0, rng)
	const peakStart, horizon = 25200.0, 3600.0
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+horizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}
	starts := city.InitialDrivers(200, day, rng)
	admitted := len(orders)

	run := func(b *testing.B, scenario sim.ScenarioConfig) sim.Summary {
		cfg := sim.Config{
			Grid: city.Grid(), Delta: 20, TC: 1200, Horizon: horizon,
			CandidateCap: 16, Scenario: scenario,
		}
		m, err := sim.New(cfg, orders, starts).Run(context.Background(), &dispatch.IRG{})
		if err != nil {
			b.Fatal(err)
		}
		return m.Summary()
	}

	// The reference run the Off case must reproduce byte-for-byte.
	baseline := run(b, sim.ScenarioConfig{})

	b.Run("Off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := run(b, sim.ScenarioConfig{Seed: 42}) // zero knobs, seed set
			if got != baseline {
				b.Fatalf("scenario-off run diverged from the scenario-free engine:\n  off:  %+v\n  base: %+v",
					got, baseline)
			}
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
	b.Run("On", func(b *testing.B) {
		b.ReportAllocs()
		var got sim.Summary
		for i := 0; i < b.N; i++ {
			got = run(b, sim.ScenarioConfig{
				CancelRate: 0.1, DeclineProb: 0.05, TravelNoise: 0.2, Seed: 42,
			})
		}
		if got.Canceled == 0 || got.Declines == 0 || got.TravelSamples == 0 {
			b.Fatalf("scenario inactive under load: %+v", got)
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
}

// BenchmarkDispatchCycle runs one hour of full engine batch cycles —
// order admission, candidate pruning, batched pickup costing, IRG
// assignment, commitment — over a 28K-order day at 200 drivers, under
// both the closed-form and the road-network coster. Each iteration gets
// its own coster, built outside the timer, so the road network's tree
// cache starts cold every time and -benchtime 1x measures what 5x does.
func BenchmarkDispatchCycle(b *testing.B) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(3))
	orders := city.GenerateDay(0, rng)
	starts := city.InitialDrivers(200, orders, rng)

	run := func(b *testing.B, newCoster func() roadnet.Coster) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := sim.Config{Grid: city.Grid(), Coster: newCoster(), Delta: 3, TC: 1200, Horizon: 3600}
			b.StartTimer()
			e := sim.New(cfg, orders, starts)
			if _, err := e.Run(context.Background(), &dispatch.IRG{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("GreatCircle", func(b *testing.B) { run(b, func() roadnet.Coster { return nil }) })
	b.Run("RoadNetwork", func(b *testing.B) {
		g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 1})
		run(b, func() roadnet.Coster { return roadnet.NewGraphCoster(g) })
	})
}

// BenchmarkPooledDispatch measures what the pooling subsystem costs and
// buys at dispatch time: the same peak hour of a 28K-order day at 200
// drivers under the POOL dispatcher, with pooling off, at capacity 2,
// and at capacity 4. The Off case asserts the zero-overhead contract
// behaviorally — a zero pool.Config must reproduce the pooling-free
// engine byte-for-byte — and the committed BENCH_pool.json baseline
// tracks the capacity-2/-4 timing ratios (insertion candidates are
// priced per busy driver on top of the solo pairing, so enabled runs
// pay for the extra route-plan evaluations and serve more orders for
// it).
func BenchmarkPooledDispatch(b *testing.B) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	day := city.GenerateDay(0, rng)
	const peakStart, horizon = 25200.0, 3600.0
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+horizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}
	starts := city.InitialDrivers(200, day, rng)
	admitted := len(orders)

	run := func(b *testing.B, pc pool.Config) sim.Summary {
		cfg := sim.Config{
			Grid: city.Grid(), Delta: 20, TC: 1200, Horizon: horizon,
			CandidateCap: 16, Pooling: pc,
		}
		m, err := sim.New(cfg, orders, starts).Run(context.Background(), dispatch.POOL{})
		if err != nil {
			b.Fatal(err)
		}
		return m.Summary()
	}

	// The reference run the Off case must reproduce byte-for-byte.
	baseline := run(b, pool.Config{})

	b.Run("Off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := run(b, pool.Config{Capacity: 1, MaxDetourSeconds: 300})
			if got != baseline {
				b.Fatalf("pooling-off run diverged from the pooling-free engine:\n  off:  %+v\n  base: %+v",
					got, baseline)
			}
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
	for _, capacity := range []int{2, 4} {
		b.Run(fmt.Sprintf("Capacity%d", capacity), func(b *testing.B) {
			b.ReportAllocs()
			var got sim.Summary
			for i := 0; i < b.N; i++ {
				got = run(b, pool.Config{Capacity: capacity, MaxDetourSeconds: 300})
			}
			if got.SharedServed == 0 {
				b.Fatalf("pooling inactive under load: %+v", got)
			}
			if got.Served <= baseline.Served {
				b.Fatalf("pooled peak served %d <= solo %d", got.Served, baseline.Served)
			}
			b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
		})
	}
}

// BenchmarkObsDispatch measures the observability layer's cost: one
// peak hour of a 28K-order day at 200 drivers, dispatched with the obs
// layer off (zero ObsConfig — the nil-gated path pays one pointer
// check per hook), with the metrics registry alone (lock-free atomics
// on pre-resolved instruments; noise-level, target <= ~1.03x), and
// with the full span tracer added (one hand-encoded JSONL span per
// terminal order to io.Discard; ~1.14x here, amortizing below 1%
// under road-network costing). Every case asserts the Summary is
// byte-identical to the uninstrumented baseline: metrics and spans
// record only wall-clock data that never feeds a Summary, so
// instrumentation cannot perturb dispatch outcomes. BENCH_obs.json
// commits the baseline.
func BenchmarkObsDispatch(b *testing.B) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	day := city.GenerateDay(0, rng)
	const peakStart, horizon = 25200.0, 3600.0
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+horizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}
	starts := city.InitialDrivers(200, day, rng)
	admitted := len(orders)

	run := func(b *testing.B, oc sim.ObsConfig) sim.Summary {
		cfg := sim.Config{
			Grid: city.Grid(), Delta: 20, TC: 1200, Horizon: horizon,
			CandidateCap: 16, Obs: oc,
		}
		m, err := sim.New(cfg, orders, starts).Run(context.Background(), &dispatch.IRG{})
		if err != nil {
			b.Fatal(err)
		}
		return m.Summary()
	}

	// The reference run both cases must reproduce byte-for-byte.
	baseline := run(b, sim.ObsConfig{})

	b.Run("Off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := run(b, sim.ObsConfig{})
			if got != baseline {
				b.Fatalf("uninstrumented run diverged across repeats:\n  got:  %+v\n  base: %+v",
					got, baseline)
			}
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
	b.Run("Metrics", func(b *testing.B) {
		b.ReportAllocs()
		var reg *obs.Registry
		for i := 0; i < b.N; i++ {
			reg = obs.NewRegistry()
			got := run(b, sim.ObsConfig{Registry: reg})
			if got != baseline {
				b.Fatalf("metrics-instrumented run perturbed the summary:\n  got:  %+v\n  base: %+v",
					got, baseline)
			}
		}
		terminal := int64(baseline.Served + baseline.Reneged + baseline.Canceled)
		if n := reg.Counter("mrvd_orders_admitted_total", "").Value(); n < terminal || n > int64(baseline.TotalOrders) {
			b.Fatalf("admitted counter = %d, want within [%d, %d]", n, terminal, baseline.TotalOrders)
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
	b.Run("Full", func(b *testing.B) {
		b.ReportAllocs()
		var reg *obs.Registry
		var tr *obs.Tracer
		for i := 0; i < b.N; i++ {
			reg = obs.NewRegistry()
			tr = obs.NewTracer(io.Discard)
			got := run(b, sim.ObsConfig{Registry: reg, Tracer: tr})
			if got != baseline {
				b.Fatalf("instrumented run perturbed the summary:\n  got:  %+v\n  base: %+v",
					got, baseline)
			}
		}
		// Orders posted after the final batch are never admitted, so the
		// counter can trail the input size but must cover every order
		// that reached a terminal state.
		terminal := int64(baseline.Served + baseline.Reneged + baseline.Canceled)
		if n := reg.Counter("mrvd_orders_admitted_total", "").Value(); n < terminal || n > int64(baseline.TotalOrders) {
			b.Fatalf("admitted counter = %d, want within [%d, %d]", n, terminal, baseline.TotalOrders)
		}
		if tr.Count() != terminal {
			b.Fatalf("tracer wrote %d spans, want %d", tr.Count(), terminal)
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
}

// BenchmarkTimeseriesDispatch measures the windowed collector's cost on
// top of the metrics registry: the same peak hour of a 28K-order day at
// 200 drivers as BenchmarkObsDispatch, dispatched with collection off,
// with a collector at the production 1s interval, and with a 1ms
// "hot" interval. At dispatch speed a run fits in a handful of 1s
// windows, so Collect pays the registry's atomics plus at most a few
// full Gather+ingest passes — the <= ~1.03x target BENCH_timeseries.json
// pins. Hot is a stress case, not a production setting: ~1000 snapshots
// per second racing the dispatch loop, proving concurrent collection
// cannot perturb outcomes. Every case asserts the Summary byte-identical
// to the uninstrumented baseline — the collector only reads atomics on
// a ticker goroutine and never feeds anything back into dispatch — and
// each instrumented case validates its end state with one manual Tick:
// windows advanced, the admitted-rate series materialized, and the
// default SLO rule set was evaluated.
func BenchmarkTimeseriesDispatch(b *testing.B) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	day := city.GenerateDay(0, rng)
	const peakStart, horizon = 25200.0, 3600.0
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+horizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}
	starts := city.InitialDrivers(200, day, rng)
	admitted := len(orders)

	run := func(b *testing.B, oc sim.ObsConfig) sim.Summary {
		cfg := sim.Config{
			Grid: city.Grid(), Delta: 20, TC: 1200, Horizon: horizon,
			CandidateCap: 16, Obs: oc,
		}
		m, err := sim.New(cfg, orders, starts).Run(context.Background(), &dispatch.IRG{})
		if err != nil {
			b.Fatal(err)
		}
		return m.Summary()
	}

	// The reference run every case must reproduce byte-for-byte.
	baseline := run(b, sim.ObsConfig{})

	b.Run("Off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := run(b, sim.ObsConfig{})
			if got != baseline {
				b.Fatalf("uninstrumented run diverged across repeats:\n  got:  %+v\n  base: %+v",
					got, baseline)
			}
		}
		b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
	})
	collect := func(name string, interval time.Duration) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var col *obs.Collector
			for i := 0; i < b.N; i++ {
				reg := obs.NewRegistry()
				col = obs.NewCollector(obs.CollectorConfig{
					Registry: reg, Interval: interval, Rules: obs.DefaultDispatchRules(),
				})
				col.Start()
				got := run(b, sim.ObsConfig{Registry: reg})
				col.Stop()
				if got != baseline {
					b.Fatalf("collector-instrumented run perturbed the summary:\n  got:  %+v\n  base: %+v",
						got, baseline)
				}
			}
			b.StopTimer()
			// End-state validation on the last iteration's collector: one
			// manual tick guarantees a final window even when the run
			// finished inside the first interval, then the dump must show
			// the run happened.
			col.Tick(time.Now())
			dump := col.Dump()
			if dump.Windows == 0 {
				b.Fatal("collector recorded no windows")
			}
			found := false
			for _, s := range dump.Series {
				if s.Family == "mrvd_orders_admitted_total" && s.Stat == obs.StatRate {
					found = true
					break
				}
			}
			if !found {
				b.Fatalf("admitted-rate series missing from dump (%d series)", len(dump.Series))
			}
			if want := len(obs.DefaultDispatchRules()); len(dump.Health.Rules) != want {
				b.Fatalf("health evaluated %d rules, want %d", len(dump.Health.Rules), want)
			}
			b.ReportMetric(float64(admitted)*float64(b.N)/b.Elapsed().Seconds(), "orders/sec")
		})
	}
	collect("Collect", time.Second)
	collect("Hot", time.Millisecond)
}
