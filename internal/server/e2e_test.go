package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"mrvd"
	"mrvd/internal/load"
	"mrvd/internal/workload"
)

// TestEndToEndLoad is the serving layer's acceptance test: boot the
// gateway on a loopback port, drive >=200 orders over real HTTP from
// >=8 concurrent clients through the yabf-style load harness, observe
// every order reach a terminal state via the API, check the latency
// percentiles are real, and shut the whole stack down without leaking
// goroutines. The engine free-runs, so wall latencies are small but
// strictly positive.
func TestEndToEndLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	const fleet, orders, clients = 64, 240, 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The gateway runs instrumented so the load run doubles as the
	// end-to-end scrape check further down.
	reg := mrvd.NewMetricsRegistry()
	srv, err := New(ctx, newObsTestService(t, fleet, mrvd.WithObservability(reg, nil)), Config{
		Algorithm:  "NEAR",
		Fleet:      fleet,
		MaxPending: 4096, // the main run must not shed load
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	rep, err := load.Run(ctx, load.Config{
		BaseURL:     ts.URL,
		Orders:      orders,
		Concurrency: clients,
		Patience:    3000, // engine seconds
		Seed:        5,
		City:        workload.NewCity(workload.CityConfig{OrdersPerDay: 2000, Seed: 17}),
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every submission completed, none rejected or errored, and each
	// reached a terminal state.
	if rep.Orders != orders {
		t.Fatalf("completed %d submissions, want %d", rep.Orders, orders)
	}
	if rep.Rejected != 0 || rep.Errors != 0 || rep.Pending != 0 {
		t.Fatalf("rejected=%d errors=%d pending=%d, want all 0",
			rep.Rejected, rep.Errors, rep.Pending)
	}
	if rep.Assigned+rep.Expired != orders {
		t.Fatalf("terminal outcomes %d+%d, want %d", rep.Assigned, rep.Expired, orders)
	}
	if rep.Assigned == 0 {
		t.Fatal("no order was assigned at all")
	}

	// The latency histogram is populated and ordered.
	lat := rep.Latency
	if lat.Count != orders {
		t.Fatalf("latency samples %d, want %d", lat.Count, orders)
	}
	if lat.P50MS <= 0 || lat.P95MS <= 0 || lat.P99MS <= 0 {
		t.Fatalf("zero percentile in %+v", lat)
	}
	if lat.P50MS > lat.P95MS || lat.P95MS > lat.P99MS || lat.P99MS > lat.MaxMS {
		t.Fatalf("percentiles out of order: %+v", lat)
	}
	if rep.Throughput <= 0 {
		t.Fatal("throughput not reported")
	}

	// Cross-check every order's terminal state through the read API,
	// not just the long-poll responses.
	for _, res := range rep.Results {
		var view orderResponse
		resp := getJSON(t, ts, fmt.Sprintf("/v1/orders/%d", res.ID), &view)
		if resp.StatusCode != 200 {
			t.Fatalf("GET order %d: status %d", res.ID, resp.StatusCode)
		}
		if view.Status != "assigned" && view.Status != "expired" {
			t.Fatalf("order %d non-terminal via API: %q", res.ID, view.Status)
		}
		if view.Status != res.Status {
			t.Fatalf("order %d: API says %q, harness saw %q", res.ID, view.Status, res.Status)
		}
	}

	// Engine counters agree with the harness.
	var stats statsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Engine.Submitted != orders ||
		stats.Engine.Assigned != rep.Assigned || stats.Engine.Expired != rep.Expired {
		t.Errorf("stats %+v disagree with harness report %+v", stats.Engine, rep)
	}
	if stats.InFlight != 0 {
		t.Errorf("in-flight %d after the run, want 0", stats.InFlight)
	}

	// The live session's /metrics scrape parses and agrees with the
	// harness: every order admitted, every order terminal, a gateway
	// latency sample per order, and dispatch phases observed.
	fams := scrapeMetrics(t, ts.URL)
	famTotal := func(name, sample string) float64 {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing; scrape has %v", name, slices.Sorted(maps.Keys(fams)))
		}
		var total float64
		for _, s := range f.Samples {
			if s.Name == sample {
				total += s.Value
			}
		}
		return total
	}
	if n := famTotal("mrvd_orders_admitted_total", "mrvd_orders_admitted_total"); n != orders {
		t.Errorf("admitted metric = %v, want %d", n, orders)
	}
	if n := famTotal("mrvd_orders_terminal_total", "mrvd_orders_terminal_total"); n != orders {
		t.Errorf("terminal metric = %v, want %d", n, orders)
	}
	if n := famTotal("mrvd_submit_terminal_seconds", "mrvd_submit_terminal_seconds_count"); n != orders {
		t.Errorf("gateway latency samples = %v, want %d", n, orders)
	}
	if n := famTotal("mrvd_dispatch_phase_seconds", "mrvd_dispatch_phase_seconds_count"); n <= 0 {
		t.Error("no dispatch phase observations in the e2e scrape")
	}

	// Shutdown: context cancel drains cleanly — the session ends, the
	// result surfaces the cancellation, and no goroutine outlives it.
	cancel()
	if _, err := srv.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after shutdown", before, n)
	}
}
