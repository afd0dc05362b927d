package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"mrvd"
	"mrvd/internal/obs"
)

// waitForFamily blocks until the registry gathers the named family —
// the engine registers its instruments on the serve goroutine, so a
// freshly started gateway races their creation.
func waitForFamily(t *testing.T, reg *obs.Registry, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, f := range reg.Gather() {
			if f.Name == name {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("family %s never appeared in the registry", name)
}

// TestTimeseriesEndToEnd drives load through an instrumented gateway
// with collection enabled and asserts the three observability surfaces
// agree: the /v1/timeseries ring-buffer dump, the enriched /healthz,
// and a /metrics scrape. The collector runs with an hour-long ticker
// and is advanced manually, so every window boundary is deterministic.
func TestTimeseriesEndToEnd(t *testing.T) {
	reg := mrvd.NewMetricsRegistry()
	svc := newObsTestService(t, 16, mrvd.WithObservability(reg, nil))
	srv, ts, cancel := newTestServerWithService(t, svc, Config{
		Algorithm: "NEAR", Metrics: reg,
		Collect: true, CollectInterval: time.Hour, CollectWindows: 16,
	})
	defer cancel()
	col := srv.Collector()
	if col == nil {
		t.Fatal("Collect set but no collector")
	}

	waitForFamily(t, reg, "mrvd_orders_admitted_total")
	col.Tick(time.Unix(1000, 0)) // baseline: every family's first sight

	const orders = 6
	for i := 0; i < orders; i++ {
		resp, or := postOrder(t, ts, true, 600)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("order %d: status %d", i, resp.StatusCode)
		}
		if or.Status != "assigned" && or.Status != "expired" {
			t.Fatalf("order %d non-terminal: %q", i, or.Status)
		}
	}

	// Subscribe right before the collected window and drain from the
	// start: the free-running engine streams batch events continuously,
	// and a subscriber whose 256-slot buffer filled while the tick was
	// still evaluating would have the window push dropped.
	sub := srv.hub.subscribe()
	defer srv.hub.unsubscribe(sub)
	window := make(chan []byte, 1)
	go func() {
		for payload := range sub {
			if bytes.Contains(payload, []byte(`"type":"window"`)) {
				window <- payload
				return
			}
		}
	}()

	col.Tick(time.Unix(4600, 0)) // the window carrying all the load

	// The tick pushed a "window" event to the live SSE hub.
	select {
	case payload := <-window:
		var snap obs.WindowSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			t.Fatalf("window event does not decode: %v", err)
		}
		if snap.State != obs.StateOK {
			t.Errorf("window state = %q, want ok", snap.State)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no window SSE event within deadline")
	}

	var dump obs.TimeSeries
	getJSON(t, ts, "/v1/timeseries", &dump)
	if dump.Windows != 2 {
		t.Fatalf("windows = %d, want 2", dump.Windows)
	}
	if dump.IntervalSeconds != 3600 {
		t.Fatalf("interval = %v, want 3600", dump.IntervalSeconds)
	}

	// sumCount folds a family's rate series back into a cumulative
	// count: rate points are per-second deltas, so sum * interval
	// recovers everything observed since the baseline window.
	sumCount := func(family string) float64 {
		var total float64
		for _, s := range dump.Series {
			if s.Family != family || s.Stat != obs.StatRate {
				continue
			}
			for _, p := range s.Points {
				if p != nil {
					total += *p
				}
			}
		}
		return math.Round(total * dump.IntervalSeconds)
	}

	fams := scrapeMetrics(t, ts.URL)
	scraped := func(name, sample string) float64 {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from scrape", name)
		}
		var total float64
		for _, s := range f.Samples {
			if s.Name == sample {
				total += s.Value
			}
		}
		return total
	}

	// All load happened after the baseline window, so the time series
	// and the cumulative scrape must agree exactly.
	if got, want := sumCount("mrvd_orders_admitted_total"), scraped("mrvd_orders_admitted_total", "mrvd_orders_admitted_total"); got != want {
		t.Errorf("timeseries admitted = %v, scrape says %v", got, want)
	}
	if got, want := sumCount("mrvd_orders_terminal_total"), scraped("mrvd_orders_terminal_total", "mrvd_orders_terminal_total"); got != want {
		t.Errorf("timeseries terminal = %v, scrape says %v", got, want)
	}
	if got, want := sumCount("mrvd_submit_terminal_seconds"), scraped("mrvd_submit_terminal_seconds", "mrvd_submit_terminal_seconds_count"); got != want {
		t.Errorf("timeseries latency count = %v, scrape says %v", got, want)
	}
	// The latency histogram also derives a quantile series with a real
	// point in the loaded window.
	var p95 *obs.SeriesDump
	for i := range dump.Series {
		s := &dump.Series[i]
		if s.Family == "mrvd_submit_terminal_seconds" && s.Stat == obs.StatP95 {
			p95 = s
		}
	}
	if p95 == nil {
		t.Fatal("no p95 series for mrvd_submit_terminal_seconds")
	}
	last := p95.Points[len(p95.Points)-1]
	if last == nil || *last < 0 {
		t.Errorf("p95 point = %v, want a non-negative value in the loaded window", last)
	}
	// The queue gauges ride along with engine instrumentation.
	foundQueue := false
	for _, s := range dump.Series {
		if s.Family == "mrvd_queue_depth" && s.Stat == obs.StatValue {
			foundQueue = true
		}
	}
	if !foundQueue {
		t.Error("no mrvd_queue_depth series in the dump")
	}

	// The enriched /healthz carries the same health snapshot the dump
	// embeds: default rules, all ok under light load.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d, want 200", resp.StatusCode)
	}
	var h obs.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != obs.StateOK {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
	if len(h.Rules) != len(obs.DefaultDispatchRules()) {
		t.Errorf("healthz rules = %d, want the default set (%d)", len(h.Rules), len(obs.DefaultDispatchRules()))
	}
	if h.Status != dump.Health.Status {
		t.Errorf("healthz status %q disagrees with timeseries health %q", h.Status, dump.Health.Status)
	}
}

// TestHealthzStatusCodes pins the state→status-code mapping: a firing
// degraded rule turns /healthz into 429, an unhealthy one into 503.
func TestHealthzStatusCodes(t *testing.T) {
	reg := mrvd.NewMetricsRegistry()
	svc := newObsTestService(t, 8, mrvd.WithObservability(reg, nil))
	// A rule that fires as soon as any rate window exists: every rate
	// is > -1 once the family has two sightings.
	rules := []obs.Rule{{
		Name:   "always-degraded",
		Metric: obs.Selector{Family: "mrvd_orders_admitted_total", Stat: obs.StatRate},
		Op:     ">", Threshold: -1,
	}}
	srv, ts, cancel := newTestServerWithService(t, svc, Config{
		Algorithm: "NEAR", Metrics: reg,
		Collect: true, CollectInterval: time.Hour, CollectWindows: 8,
		Rules: rules,
	})
	defer cancel()
	col := srv.Collector()

	status := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(); got != http.StatusOK {
		t.Fatalf("pre-collection healthz = %d, want 200", got)
	}
	waitForFamily(t, reg, "mrvd_orders_admitted_total")
	col.Tick(time.Unix(1000, 0))
	if got := status(); got != http.StatusOK {
		t.Fatalf("first-sight healthz = %d, want 200 (no data, rule frozen)", got)
	}
	col.Tick(time.Unix(4600, 0))
	if got := status(); got != http.StatusTooManyRequests {
		t.Fatalf("degraded healthz = %d, want 429", got)
	}
	h := col.Health()
	if h.Status != obs.StateDegraded || len(h.Events) != 1 {
		t.Fatalf("health = %+v, want one degraded firing", h)
	}

	// Session over beats rule state: the gateway reports 503.
	cancel()
	<-srv.Handle().Done()
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz = %d, want 503", got)
	}
}
