// Command mrvd-sim runs one simulated day of dispatching and prints the
// headline metrics for each requested algorithm. Ctrl-C cancels the run
// cleanly between batches.
//
// Usage:
//
//	mrvd-sim [-orders 70000] [-drivers 250] [-tau 120] [-delta 3]
//	         [-tc 1200] [-algs IRG,LS,NEAR] [-pred oracle|stnet|none]
//	         [-trace file.csv] [-write-trace day.csv] [-seed 1]
//	         [-cancel-rate 0] [-decline-prob 0] [-decline-cooldown 0]
//	         [-travel-noise 0] [-scenario-seed 0]
//	         [-pool-capacity 0] [-pool-detour 0]
//	         [-obs] [-trace-out spans.jsonl]
//
// -obs instruments each run and appends a dispatch phase breakdown
// (admit/build/dispatch/apply wall time per batch round) under the
// algorithm's row; -trace-out streams one JSON span per terminal order.
// Both off by default — an uninstrumented run executes the exact
// baseline code path.
//
// The scenario flags run the day under disruptions: stochastic rider
// cancellations, driver declines with cooldown, and noisy realized
// travel times (all off by default; see mrvd.WithScenario).
//
// -pool-capacity >= 2 enables shared rides (see mrvd.WithPooling):
// busy drivers carry route plans and each batch prices detour-bounded
// insertions; pair it with the POOL algorithm (e.g. -algs NEAR,POOL)
// to commit them. -pool-detour bounds each rider's detour in seconds
// (0 keeps the 300s default).
//
// With -trace, orders are read from a CSV in the library's trace format
// (e.g., a converted TLC extract) instead of the synthetic city.
// -write-trace writes the day the run would replay — the synthetic day
// of -orders/-tau/-seed — in that format ("-" = stdout) and exits
// without dispatching. The file is a valid -trace input; a -trace
// replay draws the fleet's start positions afresh, so its metrics need
// not equal the synthetic run's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"mrvd"
	"mrvd/internal/core"
	"mrvd/internal/predict"
	"mrvd/internal/trace"
)

func main() {
	var (
		orders    = flag.Int("orders", 70000, "synthetic orders per day")
		drivers   = flag.Int("drivers", 250, "fleet size")
		tau       = flag.Float64("tau", 120, "base pickup waiting time (s)")
		delta     = flag.Float64("delta", 3, "batch interval (s)")
		tc        = flag.Float64("tc", 1200, "scheduling window t_c (s)")
		algsFlag  = flag.String("algs", "IRG,LS,LTG,NEAR,RAND,POLAR,UPPER", "comma-separated algorithms")
		pred      = flag.String("pred", "oracle", "demand forecasts: oracle, stnet, ha, lr, gbrt, none")
		traceFile = flag.String("trace", "", "replay this trace CSV instead of generating orders")
		writeFile = flag.String("write-trace", "", "write the day this run would replay as a trace CSV (\"-\" = stdout) and exit")
		seed      = flag.Int64("seed", 1, "instance seed")

		cancelRate   = flag.Float64("cancel-rate", 0, "scenario: probability a waiting rider abandons before its deadline")
		declineProb  = flag.Float64("decline-prob", 0, "scenario: probability a driver declines a committed assignment")
		declineCD    = flag.Float64("decline-cooldown", 0, "scenario: declining driver's cooldown in engine seconds (0 = default 60)")
		travelNoise  = flag.Float64("travel-noise", 0, "scenario: relative stddev of realized travel times around the estimate")
		scenarioSeed = flag.Int64("scenario-seed", 0, "scenario: RNG seed for cancels/declines/noise")

		poolCap    = flag.Int("pool-capacity", 0, "pooling: onboard rider capacity per driver (0 or 1 = off, >= 2 = shared rides)")
		poolDetour = flag.Float64("pool-detour", 0, "pooling: max per-rider detour in seconds (0 = default 300)")

		obsOn    = flag.Bool("obs", false, "instrument each run and print a dispatch phase breakdown per algorithm")
		traceOut = flag.String("trace-out", "", "append one JSON span per terminal order to this file (\"-\" = stdout; multiple -algs concatenate)")
	)
	flag.Parse()

	// Fail fast on nonsensical flags, joined, matching the
	// mrvd.NewService validation convention.
	var flagErrs []error
	if *orders <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-orders must be positive, got %d", *orders))
	}
	if *drivers <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-drivers must be positive, got %d", *drivers))
	}
	if *tau <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-tau must be positive, got %v", *tau))
	}
	if *poolCap < 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-pool-capacity must be >= 0, got %d", *poolCap))
	}
	if *poolDetour < 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-pool-detour must be >= 0, got %v", *poolDetour))
	}
	if err := errors.Join(flagErrs...); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	city := mrvd.NewCity(mrvd.CityConfig{
		OrdersPerDay: *orders, BaseWaitSeconds: *tau, Seed: 31,
	})

	mode := mrvd.PredictOracle
	var model mrvd.Predictor
	switch strings.ToLower(*pred) {
	case "oracle":
	case "none":
		mode = mrvd.PredictNone
	case "stnet":
		mode, model = mrvd.PredictModel, &predict.STNet{}
	case "ha":
		mode, model = mrvd.PredictModel, predict.HA{}
	case "lr":
		mode, model = mrvd.PredictModel, &predict.LR{}
	case "gbrt":
		mode, model = mrvd.PredictModel, &predict.GBRT{Seed: *seed}
	default:
		fmt.Fprintf(os.Stderr, "mrvd-sim: unknown -pred %q\n", *pred)
		os.Exit(2)
	}

	// mode/model are passed to each runner.Run below, not WithPrediction:
	// this command drives the lower-level Runner API to share history
	// across algorithms.
	svcOpts := []mrvd.Option{
		mrvd.WithCity(city),
		mrvd.WithFleet(*drivers),
		mrvd.WithBatchInterval(*delta),
		mrvd.WithSchedulingWindow(*tc),
		mrvd.WithSeed(*seed),
	}
	scenario := mrvd.ScenarioConfig{
		CancelRate:      *cancelRate,
		DeclineProb:     *declineProb,
		DeclineCooldown: *declineCD,
		TravelNoise:     *travelNoise,
		Seed:            *scenarioSeed,
	}
	if scenario.Enabled() {
		svcOpts = append(svcOpts, mrvd.WithScenario(scenario))
	}
	if *poolCap >= 2 {
		svcOpts = append(svcOpts, mrvd.WithPooling(*poolCap, *poolDetour))
	}
	if *traceFile != "" {
		// Replay the external trace: orders come from the file; drivers
		// start at sampled pickups.
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		external, err := mrvd.ReadOrdersCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		svcOpts = append(svcOpts, mrvd.WithOrders(external, nil))
	}
	if *writeFile != "" {
		svc, err := mrvd.NewService(svcOpts...)
		if err != nil {
			fatal(err)
		}
		if err := writeTrace(*writeFile, svc.Runner().Orders()); err != nil {
			fatal(err)
		}
		return
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

	// History and trained predictors are built by the first algorithm's
	// runner and shared with the rest. The service is rebuilt per
	// algorithm so each run gets its own metrics registry (the phase
	// table below is per-algorithm); without -obs or -trace-out the loop
	// reuses one uninstrumented service.
	var svc *mrvd.Service
	var base *mrvd.Runner
	fmt.Printf("%-6s %14s %8s %8s %9s %9s %10s %12s %10s %10s %10s\n",
		"alg", "revenue", "served", "reneged", "canceled", "declines", "meanIdle", "pickupSec", "avgBatch", "p95Batch", "p99Batch")
	for _, alg := range strings.Split(*algsFlag, ",") {
		alg = strings.TrimSpace(alg)
		var reg *mrvd.MetricsRegistry
		if *obsOn {
			reg = mrvd.NewMetricsRegistry()
		}
		if svc == nil || reg != nil {
			opts := svcOpts
			if reg != nil || tracer != nil {
				opts = append(opts[:len(opts):len(opts)], mrvd.WithObservability(reg, tracer))
			}
			var err error
			if svc, err = mrvd.NewService(opts...); err != nil {
				fatal(err)
			}
		}
		runner := svc.Runner()
		if base != nil {
			runner.ShareFrom(base)
		}
		d, err := core.NewDispatcher(alg, *seed)
		if err != nil {
			fatal(err)
		}
		m, err := runner.Run(ctx, d, mode, model)
		if err != nil {
			// The run is dying anyway — flush the tracer first so a
			// retained span write error is reported alongside, not lost.
			if terr := closeTracer(tracer, *traceOut); terr != nil {
				fmt.Fprintf(os.Stderr, "mrvd-sim: %v\n", terr)
			}
			fatal(err)
		}
		base = runner
		s := m.Summary()
		fmt.Printf("%-6s %14.0f %8d %8d %9d %9d %9.1fs %12.0f %9.4fs %9.4fs %9.4fs\n",
			alg, s.Revenue, s.Served, s.Reneged, s.Canceled, s.Declines,
			s.MeanIdleSeconds(), s.PickupSeconds, m.AvgBatchSeconds(),
			m.BatchSecondsQuantile(0.95), m.BatchSecondsQuantile(0.99))
		if s.TravelSamples > 0 {
			fmt.Printf("       travel noise: %d trips, mean |est-real| %.1fs\n",
				s.TravelSamples, s.MeanAbsTravelErrorSeconds())
		}
		if s.SharedServed > 0 {
			fmt.Printf("       pooled: %d shared rides, mean detour %.1fs\n",
				s.SharedServed, s.DetourSeconds/float64(s.SharedServed))
		}
		if reg != nil {
			printPhaseBreakdown(reg)
		}
	}
	if err := closeTracer(tracer, *traceOut); err != nil {
		fatal(err)
	}
	if tracer != nil {
		fmt.Printf("wrote %d spans to %s\n", tracer.Count(), *traceOut)
	}
}

// writeTrace writes orders as a trace CSV to path, or to stdout for "-".
func writeTrace(path string, orders []mrvd.Order) error {
	if path == "-" {
		return trace.WriteCSV(os.Stdout, orders)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, orders); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// closeTracer flushes the span tracer and surfaces its retained first
// write error — a full disk must fail the run with a non-zero exit,
// not drop spans silently.
func closeTracer(tracer *mrvd.SpanTracer, dest string) error {
	if tracer == nil {
		return nil
	}
	if err := tracer.Close(); err != nil {
		return fmt.Errorf("trace: %d spans written to %s, first write error: %w", tracer.Count(), dest, err)
	}
	return nil
}

// printPhaseBreakdown renders the run's mrvd_dispatch_phase_seconds
// histogram family as an indented per-phase table: where each batch
// round's wall time went (admit, build, dispatch, apply).
func printPhaseBreakdown(reg *mrvd.MetricsRegistry) {
	for _, fam := range reg.Gather() {
		if fam.Name != "mrvd_dispatch_phase_seconds" {
			continue
		}
		fmt.Printf("       %-10s %10s %12s %12s %12s\n", "phase", "rounds", "total", "mean", "p95")
		for _, sample := range fam.Samples {
			if sample.Count == 0 {
				continue
			}
			fmt.Printf("       %-10s %10d %11.3fs %11.6fs %11.6fs\n",
				sample.Labels[0], sample.Count, sample.Sum,
				sample.Sum/float64(sample.Count), sample.Quantile(fam.Bounds, 0.95))
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mrvd-sim: %v\n", err)
	os.Exit(1)
}
