package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mrvd/internal/obs"
)

func fp(v float64) *float64 { return &v }

func testDump() obs.TimeSeries {
	val := 0.42
	return obs.TimeSeries{
		IntervalSeconds: 1, Capacity: 8, Windows: 4,
		Times: []float64{100, 101, 102, 103},
		Series: []obs.SeriesDump{
			{Family: "mrvd_orders_admitted_total", Kind: "counter", Stat: obs.StatRate,
				Points: []*float64{nil, fp(2), fp(4), fp(3)}},
			{Family: "mrvd_orders_terminal_total", Labels: map[string]string{"outcome": "served"},
				Kind: "counter", Stat: obs.StatRate, Points: []*float64{nil, fp(1), fp(3), fp(2)}},
			{Family: "mrvd_submit_terminal_seconds", Kind: "histogram", Stat: obs.StatP95,
				Points: []*float64{nil, fp(0.8), fp(1.2), fp(0.9)}},
			{Family: "mrvd_queue_depth",
				Kind: "gauge", Stat: obs.StatValue, Points: []*float64{fp(5), fp(9), fp(7), fp(6)}},
		},
		Health: obs.Health{
			Status: obs.StateDegraded,
			Rules: []obs.RuleStatus{
				{Name: "latency-p95-ceiling", State: obs.StateDegraded, Severity: obs.StateDegraded,
					Value: &val, Threshold: 30, Op: ">", Metric: "p95(mrvd_submit_terminal_seconds)"},
			},
			Events: []obs.HealthEvent{
				{Rule: "latency-p95-ceiling", From: obs.StateOK, To: obs.StateDegraded, At: 102, Value: 31},
			},
		},
	}
}

func TestSparkline(t *testing.T) {
	got := sparkline([]*float64{nil, fp(0), fp(50), fp(100)}, 10)
	if want := " ▁▄█"; got != want {
		t.Errorf("sparkline = %q, want %q", got, want)
	}
	// Flat series renders the lowest rune, not a divide-by-zero.
	if got := sparkline([]*float64{fp(7), fp(7)}, 10); got != "▁▁" {
		t.Errorf("flat sparkline = %q", got)
	}
	// Truncated to width, keeping the newest points.
	if got := sparkline([]*float64{fp(0), fp(1), fp(2)}, 2); len([]rune(got)) != 2 {
		t.Errorf("width cap: %q", got)
	}
}

func TestRenderFrame(t *testing.T) {
	var b strings.Builder
	renderFrame(&b, testDump(), "http://x", 20, false, false)
	out := b.String()
	for _, want := range []string{
		"DEGRADED", "admitted/s", "served/s", "latency p95",
		"queue depth", "latency-p95-ceiling", "ok -> degraded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[32m") {
		t.Error("colors rendered with color off")
	}
	// Colored + repaint mode emits ANSI control sequences.
	b.Reset()
	renderFrame(&b, testDump(), "http://x", 20, true, true)
	if !strings.Contains(b.String(), "\x1b[") {
		t.Error("no ANSI sequences in repaint mode")
	}
}

func TestDashFrameOverHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/timeseries" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(testDump())
	}))
	defer srv.Close()

	d := &dash{url: srv.URL, width: 24, color: false}
	var b strings.Builder
	if err := d.frame(&b, false); err != nil {
		t.Fatalf("frame: %v", err)
	}
	if !strings.Contains(b.String(), "admitted/s") {
		t.Errorf("frame output:\n%s", b.String())
	}

	// A gateway without -collect 404s; the dashboard explains itself.
	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	d2 := &dash{url: plain.URL, width: 24}
	if err := d2.frame(&b, false); err == nil || !strings.Contains(err.Error(), "-collect") {
		t.Errorf("want a hint about -collect, got %v", err)
	}
}
