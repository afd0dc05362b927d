// Command mrvd-serve exposes the dispatch engine as an HTTP service: a
// live Serve session behind the internal/server gateway. Riders submit
// orders with POST /v1/orders (add ?wait=true to long-poll the
// assignment), observability comes from GET /v1/orders/{id},
// /v1/drivers, /v1/stats and the /v1/events SSE stream, and a full
// pending queue answers 429.
//
// Usage:
//
//	mrvd-serve [-addr :8080] [-alg LS] [-drivers 100] [-orders 28000]
//	           [-delta 3] [-pace 1] [-horizon 86400] [-max-pending 1024]
//	           [-patience 300] [-road] [-seed 1] [-shards 1] [-borrow]
//	           [-cancel-rate 0] [-decline-prob 0] [-decline-cooldown 0]
//	           [-travel-noise 0] [-scenario-seed 0]
//	           [-pool-capacity 0] [-pool-detour 0]
//	           [-metrics] [-pprof] [-trace-out spans.jsonl]
//	           [-collect] [-collect-interval 1s] [-collect-windows 120]
//
// -metrics instruments the engine and serves GET /metrics in Prometheus
// text format (dispatch phase timings, coster cache counters, pool
// search counters, per-shard round timings, submit→terminal latency,
// process runtime health); -pprof mounts net/http/pprof under
// /debug/pprof/; -trace-out streams one JSON span per terminal order
// (submit → admit → commit → pickup → dropoff/cancel/renege with
// per-phase durations) to a file. All off by default — an
// uninstrumented session runs the exact baseline code path.
//
// -collect (implies -metrics) runs the windowed time-series collector
// over the registry: GET /v1/timeseries serves the ring-buffer dump
// (watch it live with mrvd-top), GET /healthz reports the default
// dispatch SLO rule states with a degraded=429/unhealthy=503 status
// code, and each collected window streams to /v1/events subscribers
// as a "window" SSE event.
//
// The scenario flags enable the disruption layer: -cancel-rate makes
// waiting riders abandon stochastically (riders can always cancel
// explicitly with DELETE /v1/orders/{id}), -decline-prob makes drivers
// decline committed assignments and cool down, -travel-noise perturbs
// realized travel times around the planner's estimates. All off by
// default.
//
// -pool-capacity >= 2 enables shared rides (pair it with -alg POOL to
// commit insertions): assignments and the SSE stream then carry
// shared/detour fields, /v1/drivers shows onboard riders and remaining
// stops, and pickup/dropoff events stream as they complete.
// -pool-detour bounds each rider's detour in seconds (0 = 300s).
//
// -shards N (default 1, values below 1 rejected) sets how many lockstep
// engines the session runs on, each owning a contiguous band of the
// city and the drivers starting there; GET /v1/stats carries one entry
// per shard. -borrow admits frontier orders to a neighbouring shard
// when the owner has no driver in reach (default: strict ownership).
//
// By default the engine is paced to real time (-pace 1), so engine
// seconds are wall seconds and order patience behaves like a wall
// clock. -pace 0 free-runs (useful with the load harness, see
// cmd/mrvd-load); larger factors compress time. Ctrl-C drains and
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"mrvd"
	"mrvd/internal/obs"
	"mrvd/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		alg        = flag.String("alg", "LS", "dispatch algorithm")
		drivers    = flag.Int("drivers", 100, "fleet size")
		orders     = flag.Int("orders", 28000, "synthetic city demand (orders/day), shapes prediction")
		delta      = flag.Float64("delta", 3, "batch interval (engine seconds)")
		pace       = flag.Float64("pace", 1, "engine seconds per wall second (0 = free-run)")
		horizon    = flag.Float64("horizon", 24*3600, "serve session length (engine seconds)")
		maxPending = flag.Int("max-pending", 1024, "in-flight order bound before 429")
		patience   = flag.Float64("patience", 300, "default pickup patience (engine seconds)")
		road       = flag.Bool("road", false, "price travel on the synthetic road network instead of closed-form")
		seed       = flag.Int64("seed", 1, "instance seed")
		shards     = flag.Int("shards", 1, "lockstep dispatch engines the city is partitioned across")
		borrow     = flag.Bool("borrow", false, "candidate-borrow frontier policy between shards")

		cancelRate   = flag.Float64("cancel-rate", 0, "scenario: probability a waiting rider abandons before its deadline")
		declineProb  = flag.Float64("decline-prob", 0, "scenario: probability a driver declines a committed assignment")
		declineCD    = flag.Float64("decline-cooldown", 0, "scenario: declining driver's cooldown in engine seconds (0 = default 60)")
		travelNoise  = flag.Float64("travel-noise", 0, "scenario: relative stddev of realized travel times around the estimate")
		scenarioSeed = flag.Int64("scenario-seed", 0, "scenario: RNG seed for cancels/declines/noise")

		poolCap    = flag.Int("pool-capacity", 0, "pooling: onboard rider capacity per driver (0 or 1 = off, >= 2 = shared rides)")
		poolDetour = flag.Float64("pool-detour", 0, "pooling: max per-rider detour in seconds (0 = default 300)")

		metricsOn = flag.Bool("metrics", false, "instrument the engine and expose GET /metrics (Prometheus text)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under GET /debug/pprof/")
		traceOut  = flag.String("trace-out", "", "append one JSON span per terminal order to this file (\"-\" = stdout)")

		collectOn       = flag.Bool("collect", false, "run the time-series collector: GET /v1/timeseries, SLO-enriched /healthz, window SSE (implies -metrics)")
		collectInterval = flag.Duration("collect-interval", time.Second, "collection window period")
		collectWindows  = flag.Int("collect-windows", 120, "retained collection windows (ring capacity)")
	)
	flag.Parse()
	if *collectOn {
		*metricsOn = true
	}

	// Fail fast on nonsensical flags, joined, matching the
	// mrvd.NewService validation convention.
	var flagErrs []error
	if *orders <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-orders must be positive, got %d", *orders))
	}
	if *drivers <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-drivers must be positive, got %d", *drivers))
	}
	if *maxPending <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-max-pending must be positive, got %d", *maxPending))
	}
	if *patience <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-patience must be positive, got %v", *patience))
	}
	if *shards < 1 {
		flagErrs = append(flagErrs, fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	if *poolCap < 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-pool-capacity must be >= 0, got %d", *poolCap))
	}
	if *poolDetour < 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-pool-detour must be >= 0, got %v", *poolDetour))
	}
	if *collectInterval <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-collect-interval must be positive, got %v", *collectInterval))
	}
	if *collectWindows <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-collect-windows must be positive, got %d", *collectWindows))
	}
	if err := errors.Join(flagErrs...); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []mrvd.Option{
		mrvd.WithCity(mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: *orders, Seed: 31})),
		mrvd.WithFleet(*drivers),
		mrvd.WithBatchInterval(*delta),
		mrvd.WithHorizon(*horizon),
		mrvd.WithSeed(*seed),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
		mrvd.WithShards(*shards),
	}
	if *pace > 0 {
		opts = append(opts, mrvd.WithPace(*pace))
	}
	scenario := mrvd.ScenarioConfig{
		CancelRate:      *cancelRate,
		DeclineProb:     *declineProb,
		DeclineCooldown: *declineCD,
		TravelNoise:     *travelNoise,
		Seed:            *scenarioSeed,
	}
	if scenario.Enabled() {
		opts = append(opts, mrvd.WithScenario(scenario))
	}
	if *poolCap >= 2 {
		opts = append(opts, mrvd.WithPooling(*poolCap, *poolDetour))
	}
	if *borrow {
		opts = append(opts, mrvd.WithBoundaryPolicy(mrvd.CandidateBorrow))
	}
	if *road {
		opts = append(opts, mrvd.WithCoster(mrvd.GraphCoster(*seed)))
	}
	var reg *mrvd.MetricsRegistry
	if *metricsOn {
		reg = mrvd.NewMetricsRegistry()
		// Process-runtime health (goroutines, heap, GC pauses, uptime)
		// rides on the same registry, so /metrics, the collector and
		// mrvd-top see it for free.
		obs.RegisterProcessMetrics(reg)
	}
	var tracer *mrvd.SpanTracer
	if *traceOut != "" {
		w := os.Stdout
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			w = f
		}
		tracer = mrvd.NewSpanTracer(w)
	}
	if reg != nil || tracer != nil {
		opts = append(opts, mrvd.WithObservability(reg, tracer))
	}
	svc, err := mrvd.NewService(opts...)
	if err != nil {
		fatal(err)
	}

	srv, err := server.New(ctx, svc, server.Config{
		Algorithm:       *alg,
		Fleet:           *drivers,
		MaxPending:      *maxPending,
		DefaultPatience: *patience,
		Metrics:         reg,
		Pprof:           *pprofOn,
		Collect:         *collectOn,
		CollectInterval: *collectInterval,
		CollectWindows:  *collectWindows,
	})
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	go func() {
		// Ctrl-C or the session ending on its own (horizon reached,
		// drain) stops accepting; the gateway result below then
		// reports how the session went.
		select {
		case <-ctx.Done():
		case <-srv.Handle().Done():
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	policy := "strict"
	if *borrow {
		policy = "borrow"
	}
	fmt.Printf("mrvd-serve: %s dispatch on %s (fleet %d, delta %.1fs, pace %.1fx, max-pending %d, shards %d/%s)\n",
		*alg, *addr, *drivers, *delta, *pace, *maxPending, *shards, policy)
	if scenario.Enabled() {
		fmt.Printf("  disruptions: cancel-rate %.2f, decline-prob %.2f, travel-noise %.2f (seed %d)\n",
			scenario.CancelRate, scenario.DeclineProb, scenario.TravelNoise, scenario.Seed)
	}
	if *poolCap >= 2 {
		detour := *poolDetour
		if detour == 0 {
			detour = 300
		}
		fmt.Printf("  pooling: capacity %d, max detour %.0fs\n", *poolCap, detour)
	}
	fmt.Printf("  POST %s/v1/orders  {\"pickup\":{\"lng\":..,\"lat\":..},\"dropoff\":{..}}  (?wait=true to long-poll)\n", *addr)
	fmt.Printf("  DELETE %s/v1/orders/{id}  (rider-initiated cancel)\n", *addr)
	if *metricsOn {
		fmt.Printf("  GET %s/metrics  (Prometheus text)\n", *addr)
	}
	if *collectOn {
		// A bare ":8080" listen address needs a host for the copy-paste
		// mrvd-top hint.
		hint := *addr
		if strings.HasPrefix(hint, ":") {
			hint = "localhost" + hint
		}
		fmt.Printf("  GET %s/v1/timeseries  (windowed time series; watch with mrvd-top -url http://%s)\n", *addr, hint)
		fmt.Printf("  GET %s/healthz  (SLO rule states; 429 degraded, 503 unhealthy)\n", *addr)
	}
	if *pprofOn {
		fmt.Printf("  GET %s/debug/pprof/  (profiling)\n", *addr)
	}
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}

	m, err := srv.Result()
	// Close the tracer before interpreting the session result: every
	// result path must surface a retained span write error (a full disk
	// silently dropping spans is exactly what this reports), and Close
	// is safe regardless of how the session ended.
	var traceErr error
	if tracer != nil {
		traceErr = tracer.Close()
		if traceErr != nil {
			fmt.Fprintf(os.Stderr, "mrvd-serve: trace: %d spans written to %s, first write error: %v\n",
				tracer.Count(), *traceOut, traceErr)
		} else {
			fmt.Printf("mrvd-serve: wrote %d spans to %s\n", tracer.Count(), *traceOut)
		}
	}
	switch {
	case err != nil && errors.Is(err, context.Canceled):
		fmt.Println("mrvd-serve: session canceled, shut down cleanly")
	case err != nil:
		fatal(err)
	default:
		fmt.Printf("mrvd-serve: session over: %d submitted, %d served, %d expired, %d canceled, %d declines, revenue %.0f\n",
			m.TotalOrders, m.Served, m.Reneged, m.Canceled, m.Declines, m.Revenue)
	}
	if traceErr != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mrvd-serve: %v\n", err)
	os.Exit(1)
}
