// Command mrvd-load drives an mrvd-serve gateway with a YCSB-style
// workload: concurrent clients submit spatially realistic orders over
// HTTP — closed-loop or Poisson open-loop — long-poll each order's
// outcome, and report throughput plus p50/p95/p99 submit-to-assignment
// wall latencies.
//
// Usage:
//
//	mrvd-load [-url http://127.0.0.1:8080] [-n 200] [-c 8] [-rate 0]
//	          [-patience 600] [-orders-per-day 2000] [-seed 1]
//	          [-timeout 120s] [-json report.json]
//	          [-cancel 0] [-cancel-after 50ms]
//
// -cancel selects that fraction of orders for a rider-cancellation mix:
// each is submitted without waiting, DELETEd after -cancel-after, and
// polled to its terminal state; assignments that beat the DELETE still
// count as assigned.
//
// -rate 0 is closed-loop (each client submits as soon as its previous
// order resolves); a positive -rate is the aggregate Poisson arrival
// intensity in submissions/sec. Patience is engine seconds: against a
// real-time gateway (mrvd-serve -pace 1) it is wall seconds too.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"mrvd"
	"mrvd/internal/load"
	"mrvd/internal/obs"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "gateway base URL")
		n        = flag.Int("n", 200, "total orders to submit")
		c        = flag.Int("c", 8, "concurrent clients")
		rate     = flag.Float64("rate", 0, "aggregate Poisson arrival rate per second (0 = closed loop)")
		patience = flag.Float64("patience", 600, "pickup patience per order (engine seconds)")
		perDay   = flag.Int("orders-per-day", 2000, "synthetic city scale for the spatial distribution")
		seed     = flag.Int64("seed", 1, "workload seed")
		timeout  = flag.Duration("timeout", 120*time.Second, "per-order wait bound")
		jsonPath = flag.String("json", "", "also write the full report as JSON to this file")

		cancelFrac  = flag.Float64("cancel", 0, "fraction of orders to cancel via DELETE /v1/orders/{id}")
		cancelAfter = flag.Duration("cancel-after", 50*time.Millisecond, "delay before a cancel-marked order's DELETE")
	)
	flag.Parse()

	// Fail fast on nonsensical flags, joined, matching the
	// mrvd.NewService validation convention.
	var flagErrs []error
	if *n <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-n must be positive, got %d", *n))
	}
	if *c <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-c must be positive, got %d", *c))
	}
	if *rate < 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-rate must be >= 0, got %v", *rate))
	}
	if *patience <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-patience must be positive, got %v", *patience))
	}
	if *perDay <= 0 {
		flagErrs = append(flagErrs, fmt.Errorf("-orders-per-day must be positive, got %d", *perDay))
	}
	if *cancelFrac < 0 || *cancelFrac > 1 {
		flagErrs = append(flagErrs, fmt.Errorf("-cancel must be in [0,1], got %v", *cancelFrac))
	}
	if err := errors.Join(flagErrs...); err != nil {
		fmt.Fprintf(os.Stderr, "mrvd-load: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := load.Run(ctx, load.Config{
		BaseURL:        *url,
		Orders:         *n,
		Concurrency:    *c,
		Rate:           *rate,
		Patience:       *patience,
		City:           mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: *perDay, Seed: 17}),
		Seed:           *seed,
		Timeout:        *timeout,
		CancelFraction: *cancelFrac,
		CancelAfter:    *cancelAfter,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrvd-load: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("orders:      %d in %.2fs (%.1f/s)\n", rep.Orders, rep.ElapsedSeconds, rep.Throughput)
	fmt.Printf("assigned:    %d\n", rep.Assigned)
	if rep.AssignedShared > 0 {
		fmt.Printf("  shared:    %d (mean detour %.1fs)\n", rep.AssignedShared, rep.MeanDetourSeconds)
		fmt.Printf("  solo:      %d\n", rep.AssignedSolo)
	}
	fmt.Printf("expired:     %d\n", rep.Expired)
	fmt.Printf("canceled:    %d (rider-initiated DELETE mix)\n", rep.Canceled)
	fmt.Printf("pending:     %d (wait timed out)\n", rep.Pending)
	fmt.Printf("rejected:    %d (429 backpressure)\n", rep.Rejected)
	fmt.Printf("errors:      %d\n", rep.Errors)
	l := rep.Latency
	fmt.Printf("latency ms:  p50=%.2f  p95=%.2f  p99=%.2f  mean=%.2f  max=%.2f  (n=%d)\n",
		l.P50MS, l.P95MS, l.P99MS, l.MeanMS, l.MaxMS, l.Count)
	printPhaseBreakdown(*url)

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrvd-load: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "mrvd-load: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("report:      %s\n", *jsonPath)
	}
}

// printPhaseBreakdown scrapes the gateway's /metrics endpoint and shows
// where dispatch wall time went per batch phase, plus the gateway's own
// submit→terminal latency histogram; silent when the gateway runs
// without -metrics.
func printPhaseBreakdown(baseURL string) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return
	}
	if phases := fams["mrvd_dispatch_phase_seconds"]; phases != nil {
		// The text form carries cumulative buckets plus _sum/_count per
		// phase; the per-phase totals are the <phase>_sum samples.
		sums := map[string]float64{}
		counts := map[string]float64{}
		for _, s := range phases.Samples {
			switch s.Name {
			case "mrvd_dispatch_phase_seconds_sum":
				sums[s.Labels["phase"]] = s.Value
			case "mrvd_dispatch_phase_seconds_count":
				counts[s.Labels["phase"]] = s.Value
			}
		}
		if len(sums) > 0 {
			fmt.Printf("phases:      (engine dispatch wall time)\n")
			for _, phase := range []string{"admit", "build", "dispatch", "apply"} {
				if n := counts[phase]; n > 0 {
					fmt.Printf("  %-9s rounds=%-8.0f total=%.3fs mean=%.1fµs\n",
						phase, n, sums[phase], 1e6*sums[phase]/n)
				}
			}
		}
	}
	if lat := fams["mrvd_submit_terminal_seconds"]; lat != nil {
		var sum, count float64
		for _, s := range lat.Samples {
			switch s.Name {
			case "mrvd_submit_terminal_seconds_sum":
				sum = s.Value
			case "mrvd_submit_terminal_seconds_count":
				count = s.Value
			}
		}
		if count > 0 {
			fmt.Printf("gateway:     submit→terminal mean=%.3fs (n=%.0f, server-side)\n", sum/count, count)
		}
	}
}
