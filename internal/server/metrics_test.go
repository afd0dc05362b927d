package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"mrvd"
	"mrvd/internal/obs"
	"mrvd/internal/roadnet"
)

// newObsTestService is newTestService plus arbitrary extra options —
// the metrics tests need observability and coster wiring on top of the
// standard free-running live-serve setup.
func newObsTestService(t testing.TB, fleet int, extra ...mrvd.Option) *mrvd.Service {
	t.Helper()
	opts := []mrvd.Option{
		mrvd.WithCity(mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 2000, Seed: 17})),
		mrvd.WithFleet(fleet),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(10 * 365 * 24 * 3600),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
	}
	opts = append(opts, extra...)
	svc, err := mrvd.NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// newTestServerWithService is newTestServer for a caller-built service.
func newTestServerWithService(t testing.TB, svc *mrvd.Service, cfg Config) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Fleet == 0 {
		cfg.Fleet = 16
	}
	srv, err := New(ctx, svc, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		cancel()
		<-srv.Handle().Done()
		ts.Close()
	})
	return srv, ts, cancel
}

// TestSubmitLatencyCostsNoGoroutine: with Config.Metrics set, the
// submit→terminal latency is observed where the ledger resolves the
// order, so an accepted order holds no goroutine while it waits.
func TestSubmitLatencyCostsNoGoroutine(t *testing.T) {
	const orders = 500
	reg := mrvd.NewMetricsRegistry()
	// Paced at real time: every order is still in flight when the
	// goroutines are counted. The handler is called directly so no HTTP
	// connection goroutines blur the count.
	srv, _, cancel := newTestServerWithService(t, newObsTestService(t, 4, mrvd.WithPace(1)),
		Config{Algorithm: "NEAR", Metrics: reg, MaxPending: orders})
	body, _ := json.Marshal(orderRequest{
		Pickup:  pointJSON{Lng: -73.97, Lat: 40.75},
		Dropoff: pointJSON{Lng: -73.95, Lat: 40.77},
	})
	before := runtime.NumGoroutine()
	for i := 0; i < orders; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/orders", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d in-flight orders hold %d goroutines", orders, after-before)
	}
	// Every order is still timed, whatever resolves it — here the stop.
	cancel()
	<-srv.Handle().Done()
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("mrvd_submit_terminal_seconds_count %d\n", orders); !strings.Contains(text.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

func scrapeMetrics(t *testing.T, url string) map[string]*obs.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return fams
}

// TestMetricsEndpoint boots an instrumented gateway over a road-network
// coster, drives orders to terminal states, and asserts the exposition
// carries at least one family per instrumented layer: engine phases,
// order lifecycle, coster cache, and gateway latency.
func TestMetricsEndpoint(t *testing.T) {
	reg := mrvd.NewMetricsRegistry()
	svc := newObsTestService(t, 16,
		mrvd.WithCoster(mrvd.GraphCoster(7)),
		mrvd.WithObservability(reg, nil),
	)
	srv, ts, cancel := newTestServerWithService(t, svc, Config{
		Algorithm: "NEAR", Metrics: reg, Pprof: true,
	})
	defer cancel()
	_ = srv

	const orders = 5
	for i := 0; i < orders; i++ {
		resp, or := postOrder(t, ts, true, 600)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("order %d: status %d", i, resp.StatusCode)
		}
		if or.Status != "assigned" && or.Status != "expired" {
			t.Fatalf("order %d non-terminal: %q", i, or.Status)
		}
	}

	fams := scrapeMetrics(t, ts.URL)
	count := func(name string) float64 {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing; scrape has %v", name, obs.FamilyNames(fams))
		}
		var total float64
		for _, s := range f.Samples {
			switch {
			case s.Name == name: // counter/gauge samples
				total += s.Value
			case s.Name == name+"_count": // histogram totals
				total += s.Value
			}
		}
		return total
	}

	// Engine phases: every batch round observed all four.
	if n := count("mrvd_dispatch_phase_seconds"); n <= 0 {
		t.Errorf("no dispatch phase observations")
	}
	// Order lifecycle: everything submitted was admitted and terminal.
	if n := count("mrvd_orders_admitted_total"); n != orders {
		t.Errorf("admitted = %v, want %d", n, orders)
	}
	if n := count("mrvd_orders_terminal_total"); n != orders {
		t.Errorf("terminal = %v, want %d", n, orders)
	}
	// Coster cache: the graph coster priced pickups, so trees were
	// built and the cache was exercised.
	if n := count("mrvd_coster_trees_total") + count("mrvd_coster_partial_trees_total"); n <= 0 {
		t.Errorf("no coster tree computations recorded")
	}
	if n := count("mrvd_coster_settled_nodes_total"); n <= 0 {
		t.Errorf("no settled nodes recorded")
	}
	// Runs that continued a cached tree are a subset of all runs, and
	// the /v1/stats coster block reports the same counter.
	resumed := count("mrvd_coster_resumed_total")
	if runs := count("mrvd_coster_trees_total") + count("mrvd_coster_partial_trees_total"); resumed > runs {
		t.Errorf("resumed runs = %v, more than the %v runs issued", resumed, runs)
	}
	var stats statsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Coster == nil || float64(stats.Coster.Resumed) != resumed {
		t.Errorf("/v1/stats coster = %+v, want Resumed = %v", stats.Coster, resumed)
	}
	// Gateway latency: one submit→terminal sample per resolved order.
	if n := count("mrvd_submit_terminal_seconds"); n != orders {
		t.Errorf("latency samples = %v, want %d", n, orders)
	}

	// Opt-in pprof rides along.
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
}

// TestMetricsEndpointAbsentWhenDisabled pins the opt-in contract: a
// gateway without Config.Metrics mounts neither /metrics nor pprof.
func TestMetricsEndpointAbsentWhenDisabled(t *testing.T) {
	_, ts, cancel := newTestServer(t, 4, 0, Config{Algorithm: "NEAR"})
	defer cancel()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestStatsRoadCosterOnce: a road-priced session's /v1/stats reports
// the coster's non-zero counters exactly once — one top-level coster
// block, read from the coster itself.
func TestStatsRoadCosterOnce(t *testing.T) {
	reg := mrvd.NewMetricsRegistry()
	coster := mrvd.GraphCoster(7)
	svc := newObsTestService(t, 16,
		mrvd.WithCoster(coster),
		mrvd.WithObservability(reg, nil),
	)
	_, ts, cancel := newTestServerWithService(t, svc, Config{
		Algorithm: "NEAR", Metrics: reg,
	})
	defer cancel()

	const orders = 6
	for i := 0; i < orders; i++ {
		if resp, _ := postOrder(t, ts, true, 600); resp.StatusCode != http.StatusOK {
			t.Fatalf("order %d: status %d", i, resp.StatusCode)
		}
	}

	var raw json.RawMessage
	getJSON(t, ts, "/v1/stats", &raw)
	if n := bytes.Count(raw, []byte(`"coster":`)); n != 1 {
		t.Errorf("/v1/stats carries %d coster blocks, want 1:\n%s", n, raw)
	}
	var stats statsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Coster == nil {
		t.Fatal("top-level coster stats missing")
	}
	if stats.Coster.Trees+stats.Coster.PartialTrees == 0 {
		t.Error("coster did no pricing work")
	}
	// Every waited-for order is assigned, so no batch prices anything
	// between the two reads.
	if own := coster.(*roadnet.GraphCoster).Stats(); *stats.Coster != own {
		t.Errorf("/v1/stats coster = %+v, the coster's own counters are %+v", *stats.Coster, own)
	}

	// The instrumented session surfaces its dispatch timings.
	fams := scrapeMetrics(t, ts.URL)
	phases := fams["mrvd_dispatch_phase_seconds"]
	if phases == nil {
		t.Fatalf("mrvd_dispatch_phase_seconds missing; scrape has %v", obs.FamilyNames(fams))
	}
	timed := false
	for _, s := range phases.Samples {
		timed = timed || (s.Name == "mrvd_dispatch_phase_seconds_count" && s.Labels["phase"] == "dispatch" && s.Value > 0)
	}
	if !timed {
		t.Error("no dispatch timing recorded")
	}
}
