package mrvd_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mrvd"
	"mrvd/internal/dispatch"
	"mrvd/internal/queueing"
)

// Example simulates one day of car-hailing in a scaled NYC-like city
// and dispatches it with the paper's local search (LS): a synthetic city
// with NYC-like demand marginals (16x16 grid, morning and evening peaks,
// hotspot concentration), a 100-vehicle fleet starting at sampled pickup
// locations, and real (oracle) demand forecasts — the paper's best
// configuration.
func Example() {
	city := mrvd.NewCity(mrvd.CityConfig{
		OrdersPerDay:    28000, // 0.1x the paper's NYC test day
		BaseWaitSeconds: 120,   // riders renege ~2 minutes after posting
		Seed:            1,
	})
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(100),
		mrvd.WithBatchInterval(3),       // batch every 3 seconds
		mrvd.WithSchedulingWindow(1200), // 20-minute queueing-analysis window
	)
	if err != nil {
		log.Fatal(err)
	}
	// The context cancels mid-run if needed (Ctrl-C, deadlines).
	m, err := svc.Run(context.Background(), "LS")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orders:        %d\n", m.TotalOrders)
	fmt.Printf("served:        %d (%.1f%%)\n", m.Served, 100*m.ServiceRate())
	fmt.Printf("reneged:       %d\n", m.Reneged)
	fmt.Printf("total revenue: %.0f (seconds of paid travel, alpha=1)\n", m.Revenue)
	fmt.Printf("batches:       %d\n", m.Batches)
	// Output:
	// orders:        26849
	// served:        7792 (29.0%)
	// reneged:       19023
	// total revenue: 4391070 (seconds of paid travel, alpha=1)
	// batches:       28800
}

// ExampleNewService shows the functional-options construction: a
// synthetic city, a fleet size, and the paper's batch timing. The zero
// configuration is also valid — it gives the scaled NYC-like default.
func ExampleNewService() {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 2000, Seed: 1})
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(20),
		mrvd.WithBatchInterval(3),
		mrvd.WithSchedulingWindow(1200),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(svc.Options().NumDrivers, "drivers")
	fmt.Println("algorithms:", mrvd.AlgorithmNames())
	// Output:
	// 20 drivers
	// algorithms: [IRG LS SHORT LTG NEAR RAND POLAR UPPER POOL]
}

// ExampleService_Run simulates a short morning window of a small city
// under the idle-ratio greedy dispatcher and reads the deterministic
// run facts off the metrics. Runs are reproducible: the same seed and
// configuration always yield the same Summary.
func ExampleService_Run() {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 1000, Seed: 1})
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(30),
		mrvd.WithHorizon(1800), // half an hour of simulated time
	)
	if err != nil {
		log.Fatal(err)
	}
	m, err := svc.Run(context.Background(), "IRG")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batches run: %d\n", m.Batches)
	fmt.Printf("orders in trace: %d\n", m.TotalOrders)
	// Output:
	// batches run: 600
	// orders in trace: 911
}

// ExampleService_Run_morningPeak replays the motivating scenario of the
// paper's introduction — a morning shortage where riders outnumber
// drivers — under the queueing-aware dispatchers (IRG, LS) and the
// myopic baselines (NEAR, LTG, RAND) on the same instance, against the
// UPPER bound. At this fleet size the shortage, not the dispatcher,
// decides: every dispatcher lands within one percent of the others and
// near half of UPPER.
func ExampleService_Run_morningPeak() {
	city := mrvd.NewCity(mrvd.CityConfig{
		OrdersPerDay:    42000,
		BaseWaitSeconds: 120,
		Seed:            7,
	})
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(120),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(10*3600), // midnight to 10 AM
		mrvd.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %12s %8s %9s %11s\n", "alg", "revenue", "served", "meanIdle", "% of UPPER")
	revenue := map[string]float64{}
	for _, name := range []string{"UPPER", "LS", "IRG", "LTG", "NEAR", "RAND"} {
		m, err := svc.Run(context.Background(), name)
		if err != nil {
			log.Fatal(err)
		}
		s := m.Summary()
		revenue[name] = s.Revenue
		fmt.Printf("%-6s %12.0f %8d %8.0fs %10.1f%%\n",
			name, s.Revenue, s.Served, s.MeanIdleSeconds(), 100*s.Revenue/revenue["UPPER"])
	}
	fmt.Printf("LS over RAND: %+.2f%%, LS over NEAR: %+.2f%%\n",
		100*(revenue["LS"]/revenue["RAND"]-1), 100*(revenue["LS"]/revenue["NEAR"]-1))
	// Output:
	// alg         revenue   served  meanIdle  % of UPPER
	// UPPER       3688556     4453      161s      100.0%
	// LS          1989165     3558      583s       53.9%
	// IRG         1989165     3558      583s       53.9%
	// LTG         2000592     3568      578s       54.2%
	// NEAR        1992816     3566      580s       54.0%
	// RAND        2000481     3596      566s       54.2%
	// LS over RAND: -0.57%, LS over NEAR: -0.18%
}

// ExampleService_Sweep sweeps the fleet from scarcity to saturation and
// watches each dispatcher's revenue approach the UPPER bound — the
// dynamics of the paper's Figure 7. The whole (algorithm × fleet) grid
// runs through one Sweep on a parallel worker pool; results come back in
// grid order and are identical to a sequential run.
func ExampleService_Sweep() {
	city := mrvd.NewCity(mrvd.CityConfig{
		OrdersPerDay:    14000,
		BaseWaitSeconds: 120,
		Seed:            3,
	})
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithBatchInterval(5),
		mrvd.WithHorizon(12*3600), // midnight to noon
	)
	if err != nil {
		log.Fatal(err)
	}
	fleets := []int{25, 50, 100, 200}
	algs := []string{"LS", "NEAR", "RAND", "UPPER"}
	results, err := svc.Sweep(context.Background(), mrvd.SweepSpec{
		Algorithms: algs,
		Fleets:     fleets,
		Seeds:      []int64{0},
		Mode:       mrvd.PredictOracle,
	})
	if err != nil {
		log.Fatal(err)
	}
	revenue := map[int]map[string]float64{}
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("%s fleet %d: %v", r.Algorithm, r.Fleet, r.Err)
		}
		if revenue[r.Fleet] == nil {
			revenue[r.Fleet] = map[string]float64{}
		}
		revenue[r.Fleet][r.Algorithm] = r.Metrics.Revenue
	}
	fmt.Printf("%-6s", "fleet")
	for _, a := range algs {
		fmt.Printf("%10s", a)
	}
	fmt.Printf("%14s\n", "LS % of UPPER")
	for _, n := range fleets {
		fmt.Printf("%-6d", n)
		for _, a := range algs {
			fmt.Printf("%10.0f", revenue[n][a])
		}
		fmt.Printf("%13.1f%%\n", 100*revenue[n]["LS"]/revenue[n]["UPPER"])
	}
	// Output:
	// fleet         LS      NEAR      RAND     UPPER LS % of UPPER
	// 25        359280    358316    359547   1040312         34.5%
	// 50        661175    660290    663407   1752511         37.7%
	// 100      1092745   1093083   1119974   2660126         41.1%
	// 200      1532719   1531860   1552039   2973074         51.6%
}

// ExampleWithScenario dispatches the same morning twice — once under the
// paper's clean assumptions, once with the disruption layer on: riders
// abandon while waiting, drivers decline committed assignments and cool
// down, and realized travel times wander around the planner's estimates
// (dispatch still plans on the estimates; the gap lands in the
// travel-error ledger). An Observer counts the cancel and decline events
// live, and they agree with the final summaries.
func ExampleWithScenario() {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 12000, Seed: 11})
	run := func(opts ...mrvd.Option) (*mrvd.Metrics, int, int) {
		var canceled, declined int
		base := []mrvd.Option{
			mrvd.WithCity(city),
			mrvd.WithFleet(80),
			mrvd.WithHorizon(4 * 3600), // one morning
			mrvd.WithPrediction(mrvd.PredictNone, nil),
			mrvd.WithObserver(mrvd.ObserverFuncs{
				Canceled: func(mrvd.CanceledEvent) { canceled++ },
				Declined: func(mrvd.DeclinedEvent) { declined++ },
			}),
		}
		svc, err := mrvd.NewService(append(base, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		m, err := svc.Run(context.Background(), "LS")
		if err != nil {
			log.Fatal(err)
		}
		return m, canceled, declined
	}

	clean, _, _ := run()
	disrupted, canceled, declined := run(mrvd.WithScenario(mrvd.ScenarioConfig{
		CancelRate:      0.15, // 15% of waiting riders abandon early
		DeclineProb:     0.10, // 10% of commitments are declined
		DeclineCooldown: 90,   // declining drivers sit out 90s
		TravelNoise:     0.20, // realized times: ±20% around the estimate
		Seed:            7,
	}))

	c, d := clean.Summary(), disrupted.Summary()
	fmt.Printf("%-18s %9s %9s\n", "metric", "clean", "disrupted")
	fmt.Printf("%-18s %9d %9d\n", "orders", c.TotalOrders, d.TotalOrders)
	fmt.Printf("%-18s %9d %9d\n", "served", c.Served, d.Served)
	fmt.Printf("%-18s %9d %9d\n", "expired", c.Reneged, d.Reneged)
	fmt.Printf("%-18s %9d %9d\n", "canceled by rider", c.Canceled, d.Canceled)
	fmt.Printf("%-18s %9d %9d\n", "driver declines", c.Declines, d.Declines)
	fmt.Printf("%-18s %9.0f %9.0f\n", "revenue (paid s)", c.Revenue, d.Revenue)
	fmt.Printf("live events: %d cancels, %d declines\n", canceled, declined)
	fmt.Printf("travel-error ledger: %d trips, mean |estimate-realized| %.1fs\n",
		d.TravelSamples, d.MeanAbsTravelErrorSeconds())
	r := disrupted.TravelRecords[0]
	fmt.Printf("order %d: pickup %.0fs planned / %.0fs realized, trip %.0fs planned / %.0fs realized\n",
		r.Order, r.PickupEstimate, r.PickupRealized, r.TripEstimate, r.TripRealized)
	// Output:
	// metric                 clean disrupted
	// orders                 11808     11808
	// served                   382       373
	// expired                  414       365
	// canceled by rider          0        58
	// driver declines            0        54
	// revenue (paid s)      216229    207674
	// live events: 58 cancels, 54 declines
	// travel-error ledger: 373 trips, mean |estimate-realized| 102.3s
	// order 1: pickup 77s planned / 71s realized, trip 246s planned / 278s realized
}

// ExampleWithRepositioner extends passive destination steering to active
// supply repositioning: drivers idle longer than four minutes cruise
// toward the neighbouring region with the smallest expected idle time
// (the same ET the dispatcher ranks by). An Observer counts the cruises.
func ExampleWithRepositioner() {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 28000, Seed: 5})
	run := func(opts ...mrvd.Option) (*mrvd.Metrics, int) {
		cruises := 0
		base := []mrvd.Option{
			mrvd.WithCity(city),
			mrvd.WithFleet(100),
			mrvd.WithBatchInterval(5),
			mrvd.WithHorizon(12 * 3600), // midnight to noon
			mrvd.WithObserver(mrvd.ObserverFuncs{
				Repositioned: func(mrvd.RepositionedEvent) { cruises++ },
			}),
		}
		svc, err := mrvd.NewService(append(base, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		m, err := svc.Run(context.Background(), "IRG")
		if err != nil {
			log.Fatal(err)
		}
		return m, cruises
	}

	stay, _ := run()
	cruise, cruises := run(mrvd.WithRepositioner(&dispatch.QueueReposition{}, 240))
	fmt.Printf("%-24s %9s %7s %8s %8s\n", "IRG", "revenue", "served", "reneged", "cruises")
	fmt.Printf("%-24s %9.0f %7d %8d %8d\n", "stay at dropoff (paper)", stay.Revenue, stay.Served, stay.Reneged, 0)
	fmt.Printf("%-24s %9.0f %7d %8d %8d\n", "queue-guided rebalancing", cruise.Revenue, cruise.Served, cruise.Reneged, cruises)
	fmt.Printf("revenue change: %+.2f%%\n", 100*(cruise.Revenue/stay.Revenue-1))
	// Output:
	// IRG                        revenue  served  reneged  cruises
	// stay at dropoff (paper)    1933188    3547     7262        0
	// queue-guided rebalancing   1977861    3666     7150     3492
	// revenue change: +2.31%
}

// ExampleWithPooling dispatches one saturated peak hour solo and pooled.
// The fleet is far too small to serve the hour one rider per car;
// pooling lets the POOL dispatcher splice a second rider's pickup and
// dropoff into an active route plan whenever the detour fits the bound,
// so the same drivers serve more orders at a small, bounded detour.
// Capacity 1, or omitting the option, is byte-identical to the plain
// engine.
func ExampleWithPooling() {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	day := city.GenerateDay(0, rng)

	// 7-8 AM of the synthetic day, rebased to start at 0.
	const peakStart, horizon = 25200.0, 3600.0
	var orders []mrvd.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+horizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}
	starts := city.InitialDrivers(60, day, rng)
	fmt.Printf("%d orders in one hour, %d drivers\n", len(orders), len(starts))

	run := func(extra ...mrvd.Option) mrvd.Summary {
		opts := append([]mrvd.Option{
			mrvd.WithCity(city),
			mrvd.WithOrders(orders, starts),
			mrvd.WithFleet(len(starts)),
			mrvd.WithHorizon(horizon),
			mrvd.WithPrediction(mrvd.PredictNone, nil),
		}, extra...)
		svc, err := mrvd.NewService(opts...)
		if err != nil {
			log.Fatal(err)
		}
		m, err := svc.Run(context.Background(), "POOL")
		if err != nil {
			log.Fatal(err)
		}
		return m.Summary()
	}

	fmt.Printf("%-10s %6s %6s %10s\n", "mode", "served", "shared", "meanDetour")
	solo := run()
	fmt.Printf("%-10s %6d %6d %10s\n", "solo", solo.Served, solo.SharedServed, "-")
	for _, capacity := range []int{2, 3} {
		s := run(mrvd.WithPooling(capacity, 300))
		fmt.Printf("%-10s %6d %6d %9.0fs\n", fmt.Sprintf("capacity=%d", capacity),
			s.Served, s.SharedServed, s.DetourSeconds/float64(s.SharedServed))
	}
	// Output:
	// 1113 orders in one hour, 60 drivers
	// mode       served shared meanDetour
	// solo          249      0          -
	// capacity=2    262     46        33s
	// capacity=3    262     46        33s
}

// ExampleExpectedIdleTime tabulates the closed-form expected driver idle
// time ET(λ, μ) of the paper's region queue for a region with riders
// arriving at λ = 0.05/s and at most K = 50 congested drivers, across
// driver arrival rates μ in all three regimes, and the idle ratio
// IR = ET / (cost + ET) the dispatchers rank a 600 s trip to that region
// by. A region where drivers outnumber riders keeps an arriving driver
// idle far longer, so a trip ending there ranks worse.
func ExampleExpectedIdleTime() {
	const lambda, k, cost = 0.05, 50, 600.0
	fmt.Printf("%-6s %6s %9s %8s\n", "mu", "regime", "ET (s)", "IR")
	for _, mu := range []float64{0.01, 0.02, 0.03, 0.05, 0.08, 0.1} {
		regime := "λ>μ"
		switch {
		case mu == lambda:
			regime = "λ=μ"
		case mu > lambda:
			regime = "λ<μ"
		}
		et := mrvd.ExpectedIdleTime(lambda, mu, k)
		fmt.Printf("%-6.2f %6s %9.2f %8.4f\n", mu, regime, et, queueing.IdleRatio(cost, et))
	}
	// Output:
	// mu     regime    ET (s)       IR
	// 0.01      λ>μ     24.99   0.0400
	// 0.02      λ>μ     33.31   0.0526
	// 0.03      λ>μ     49.97   0.0769
	// 0.05      λ=μ    519.98   0.4643
	// 0.08      λ<μ    986.67   0.6218
	// 0.10      λ<μ   1000.00   0.6250
}
