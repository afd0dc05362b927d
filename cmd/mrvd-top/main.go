// Command mrvd-top is a terminal dashboard over a collecting
// mrvd-serve gateway: it polls GET /v1/timeseries and renders live
// sparklines for dispatch throughput, latency quantiles, queue and
// fleet gauges and process health, plus the SLO rule
// states the gateway's /healthz reports — top(1) for a dispatch
// session.
//
// Usage:
//
//	mrvd-top [-url http://127.0.0.1:8080] [-interval 1s] [-width 60]
//	         [-once] [-no-color]
//
// The gateway must run with collection enabled (mrvd-serve -metrics
// -collect). -once renders a single frame without clearing the screen
// and exits — usable in scripts and tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"mrvd/internal/obs"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "gateway base URL")
		interval = flag.Duration("interval", time.Second, "poll period")
		width    = flag.Int("width", 60, "sparkline width in windows")
		once     = flag.Bool("once", false, "render one frame and exit")
		noColor  = flag.Bool("no-color", false, "disable ANSI colors")
	)
	flag.Parse()
	if *width < 8 {
		*width = 8
	}

	d := &dash{url: *url, width: *width, color: !*noColor}
	if *once {
		if err := d.frame(os.Stdout, false); err != nil {
			fmt.Fprintf(os.Stderr, "mrvd-top: %v\n", err)
			os.Exit(1)
		}
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	t := time.NewTicker(*interval)
	defer t.Stop()
	fmt.Print("\x1b[2J") // clear once; frames repaint from home
	for {
		if err := d.frame(os.Stdout, true); err != nil {
			fmt.Printf("\x1b[H\x1b[2Kmrvd-top: %v (retrying)\n", err)
		}
		select {
		case <-stop:
			fmt.Print("\x1b[0m\n")
			return
		case <-t.C:
		}
	}
}

// dash holds the render configuration and HTTP client.
type dash struct {
	url    string
	width  int
	color  bool
	client http.Client
}

func (d *dash) fetch() (obs.TimeSeries, error) {
	var ts obs.TimeSeries
	resp, err := d.client.Get(d.url + "/v1/timeseries")
	if err != nil {
		return ts, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ts, fmt.Errorf("GET /v1/timeseries: status %d (is the gateway running with -collect?)", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		return ts, fmt.Errorf("decode timeseries: %w", err)
	}
	return ts, nil
}

func (d *dash) frame(w io.Writer, repaint bool) error {
	ts, err := d.fetch()
	if err != nil {
		return err
	}
	var b strings.Builder
	if repaint {
		b.WriteString("\x1b[H")
	}
	renderFrame(&b, ts, d.url, d.width, d.color, repaint)
	_, err = io.WriteString(w, b.String())
	return err
}

// --- rendering ---

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders up to width points, oldest first, scaled to the
// series' own [min,max]; missing points render as spaces.
func sparkline(points []*float64, width int) string {
	if len(points) > width {
		points = points[len(points)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		if p == nil {
			continue
		}
		lo = math.Min(lo, *p)
		hi = math.Max(hi, *p)
	}
	var sb strings.Builder
	for _, p := range points {
		if p == nil {
			sb.WriteByte(' ')
			continue
		}
		if hi <= lo {
			sb.WriteRune(sparkRunes[0])
			continue
		}
		i := int((*p - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

// last returns the newest non-null point.
func last(points []*float64) (float64, bool) {
	for i := len(points) - 1; i >= 0; i-- {
		if points[i] != nil {
			return *points[i], true
		}
	}
	return 0, false
}

func peak(points []*float64) float64 {
	m := math.Inf(-1)
	for _, p := range points {
		if p != nil {
			m = math.Max(m, *p)
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

const (
	cReset  = "\x1b[0m"
	cDim    = "\x1b[2m"
	cBold   = "\x1b[1m"
	cGreen  = "\x1b[32m"
	cYellow = "\x1b[33m"
	cRed    = "\x1b[31m"
)

func paint(color bool, code, s string) string {
	if !color {
		return s
	}
	return code + s + cReset
}

func stateColor(s obs.State) string {
	switch s {
	case obs.StateUnhealthy:
		return cRed
	case obs.StateDegraded:
		return cYellow
	}
	return cGreen
}

// row is one curated dashboard line.
type row struct {
	label  string
	series *obs.SeriesDump
	unit   string
}

// find locates a series by family and stat, optionally requiring a
// label pair (pass "", "" for none).
func find(ts *obs.TimeSeries, family, stat, labelKey, labelVal string) *obs.SeriesDump {
	for i := range ts.Series {
		s := &ts.Series[i]
		if s.Family != family || s.Stat != stat {
			continue
		}
		if labelKey != "" && s.Labels[labelKey] != labelVal {
			continue
		}
		return s
	}
	return nil
}

// fmtVal renders a value compactly with its unit.
func fmtVal(v float64, unit string) string {
	switch unit {
	case "s":
		switch {
		case v >= 100:
			return fmt.Sprintf("%.0fs", v)
		case v >= 1:
			return fmt.Sprintf("%.1fs", v)
		default:
			return fmt.Sprintf("%.0fms", v*1000)
		}
	case "B":
		switch {
		case v >= 1<<30:
			return fmt.Sprintf("%.1fGiB", v/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMiB", v/(1<<20))
		default:
			return fmt.Sprintf("%.0fKiB", v/(1<<10))
		}
	default:
		switch {
		case v != math.Trunc(v) && math.Abs(v) < 100:
			return fmt.Sprintf("%.2f%s", v, unit)
		default:
			return fmt.Sprintf("%.0f%s", v, unit)
		}
	}
}

// renderFrame paints one dashboard frame from a timeseries dump.
// Split from the fetch so tests can drive it with synthetic data.
func renderFrame(b *strings.Builder, ts obs.TimeSeries, url string, width int, color, repaint bool) {
	eol := "\n"
	if repaint {
		eol = "\x1b[K\n" // clear to end of line so shorter lines overwrite
	}
	st := ts.Health.Status
	if st == "" {
		st = obs.StateOK
	}
	fmt.Fprintf(b, "%s  %s  interval %gs  windows %d  %s%s",
		paint(color, cBold, "mrvd-top"), url, ts.IntervalSeconds, ts.Windows,
		paint(color, stateColor(st)+cBold, strings.ToUpper(string(st))), eol)
	b.WriteString(eol)

	rows := []row{
		{"admitted/s", find(&ts, "mrvd_orders_admitted_total", obs.StatRate, "", ""), "/s"},
		{"served/s", find(&ts, "mrvd_orders_terminal_total", obs.StatRate, "outcome", "served"), "/s"},
		{"reneged/s", find(&ts, "mrvd_orders_terminal_total", obs.StatRate, "outcome", "reneged"), "/s"},
		{"canceled/s", find(&ts, "mrvd_orders_terminal_total", obs.StatRate, "outcome", "canceled"), "/s"},
		{"latency p50", find(&ts, "mrvd_submit_terminal_seconds", obs.StatP50, "", ""), "s"},
		{"latency p95", find(&ts, "mrvd_submit_terminal_seconds", obs.StatP95, "", ""), "s"},
		{"dispatch p95", find(&ts, "mrvd_dispatch_phase_seconds", obs.StatP95, "phase", "dispatch"), "s"},
		{"queue depth", find(&ts, "mrvd_queue_depth", obs.StatValue, "", ""), ""},
		{"drivers", find(&ts, "mrvd_drivers_available", obs.StatValue, "", ""), ""},
		{"goroutines", find(&ts, "process_goroutines", obs.StatValue, "", ""), ""},
		{"heap inuse", find(&ts, "process_heap_inuse_bytes", obs.StatValue, "", ""), "B"},
	}

	for _, r := range rows {
		if r.series == nil {
			continue
		}
		cur, ok := last(r.series.Points)
		curs := "-"
		if ok {
			curs = fmtVal(cur, r.unit)
		}
		fmt.Fprintf(b, "  %-16s %s%-*s%s %8s %s%s",
			r.label,
			paint(color, cDim, "|"), width, sparkline(r.series.Points, width), paint(color, cDim, "|"),
			curs,
			paint(color, cDim, "peak "+fmtVal(peak(r.series.Points), r.unit)), eol)
	}
	b.WriteString(eol)

	if len(ts.Health.Rules) > 0 {
		fmt.Fprintf(b, "%s%s", paint(color, cBold, "rules"), eol)
		for _, r := range ts.Health.Rules {
			dot := paint(color, stateColor(r.State), "●")
			val := "-"
			if r.Value != nil {
				val = fmtVal(*r.Value, "")
			}
			fmt.Fprintf(b, "  %s %-24s %-9s %8s %s %v   %s%s",
				dot, r.Name, string(r.State), val, r.Op, r.Threshold,
				paint(color, cDim, r.Metric), eol)
		}
	}
	if n := len(ts.Health.Events); n > 0 {
		fmt.Fprintf(b, "%s%s", paint(color, cBold, "recent transitions"), eol)
		lo := n - 5
		if lo < 0 {
			lo = 0
		}
		for _, ev := range ts.Health.Events[lo:] {
			at := time.Unix(int64(ev.At), 0).Format("15:04:05")
			fmt.Fprintf(b, "  %s  %-24s %s -> %s  (value %s)%s",
				paint(color, cDim, at), ev.Rule,
				paint(color, stateColor(ev.From), string(ev.From)),
				paint(color, stateColor(ev.To), string(ev.To)),
				fmtVal(ev.Value, ""), eol)
		}
	}
	if repaint {
		b.WriteString("\x1b[J") // clear anything below the frame
	}
}
