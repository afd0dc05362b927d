package sim

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/stats"
	"mrvd/internal/trace"
)

// obsOrders is a small mixed day: two servable orders and one the
// fleet cannot reach in time (it reneges).
func obsOrders() ([]trace.Order, []geo.Point) {
	pickup := center()
	orders := []trace.Order{
		{ID: 0, PostTime: 10, Pickup: pickup, Dropoff: offset(pickup, 2000), Deadline: 130},
		{ID: 1, PostTime: 400, Pickup: offset(pickup, 2200), Dropoff: offset(pickup, 3000), Deadline: 520},
		{ID: 2, PostTime: 20, Pickup: offset(pickup, 30000), Dropoff: offset(pickup, 31000), Deadline: 80},
	}
	starts := []geo.Point{offset(pickup, 400)}
	return orders, starts
}

// TestEngineObsDisabledParity pins the nil-gate contract: an
// instrumented run and an uninstrumented run of the same instance
// produce identical Summaries.
func TestEngineObsDisabledParity(t *testing.T) {
	run := func(cfg Config) Summary {
		orders, starts := obsOrders()
		m, err := New(cfg, orders, starts).Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Summary()
	}
	plain := run(simpleConfig())

	instrumented := simpleConfig()
	instrumented.Obs = ObsConfig{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(&strings.Builder{}),
	}
	if got := run(instrumented); got != plain {
		t.Errorf("instrumented summary diverged:\n got %+v\nwant %+v", got, plain)
	}
}

// TestEngineObsOneSpanPerTerminalOrder runs a mixed day and checks the
// tracer emitted exactly one well-formed span per terminal order, and
// the registry's phase and lifecycle families agree with the Metrics.
func TestEngineObsOneSpanPerTerminalOrder(t *testing.T) {
	var buf strings.Builder
	reg := obs.NewRegistry()
	tr := obs.NewTracer(&buf)
	cfg := simpleConfig()
	cfg.Obs = ObsConfig{Registry: reg, Tracer: tr}
	// Obs runs first on the stream, as its direct hooks did: by the time
	// a user observer hears of a solo commitment, the order's span is
	// already written.
	cfg.Observer = ObserverFuncs{Assigned: func(e AssignedEvent) {
		if line := fmt.Sprintf(`{"order":%d,"outcome":"served"`, e.Rider.Order.ID); !strings.Contains(buf.String(), line) {
			t.Errorf("OnAssigned for order %d ran before its span was emitted", e.Rider.Order.ID)
		}
	}}

	orders, starts := obsOrders()
	m, err := New(cfg, orders, starts).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 2 || m.Reneged != 1 {
		t.Fatalf("served=%d reneged=%d, want 2/1", m.Served, m.Reneged)
	}

	terminal := int64(m.Served + m.Reneged + m.Canceled)
	if tr.Count() != terminal {
		t.Fatalf("tracer wrote %d spans, want %d", tr.Count(), terminal)
	}
	seen := map[int64]obs.Span{}
	outcomes := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("malformed span line: %v\n%s", err, sc.Text())
		}
		if _, dup := seen[sp.Order]; dup {
			t.Fatalf("order %d emitted twice", sp.Order)
		}
		seen[sp.Order] = sp
		outcomes[sp.Outcome]++
		if sp.EndAt < sp.AdmitAt || sp.AdmitAt < sp.SubmitAt {
			t.Errorf("span %d timestamps out of order: %+v", sp.Order, sp)
		}
		if sp.QueueSeconds < 0 || sp.WallMS < 0 {
			t.Errorf("span %d negative durations: %+v", sp.Order, sp)
		}
	}
	if outcomes[obs.OutcomeServed] != m.Served || outcomes[obs.OutcomeReneged] != m.Reneged {
		t.Errorf("span outcomes %v, want served=%d reneged=%d", outcomes, m.Served, m.Reneged)
	}
	for id, sp := range seen {
		if sp.Outcome == obs.OutcomeServed {
			if sp.Driver < 0 {
				t.Errorf("served span %d has no driver", id)
			}
			if sp.TripSeconds <= 0 {
				t.Errorf("served span %d has no trip time: %+v", id, sp)
			}
		} else if sp.Driver != -1 {
			t.Errorf("unserved span %d attributes driver %d", id, sp.Driver)
		}
	}

	// Registry side: lifecycle counters match the metrics, and the
	// build/dispatch/apply phase histograms saw every batch round.
	if got := reg.Counter("mrvd_orders_admitted_total", "").Value(); got != int64(m.TotalOrders) {
		t.Errorf("admitted counter = %d, want %d", got, m.TotalOrders)
	}
	served := reg.CounterVec("mrvd_orders_terminal_total", "", "outcome").With("served").Value()
	reneged := reg.CounterVec("mrvd_orders_terminal_total", "", "outcome").With("reneged").Value()
	if served != int64(m.Served) || reneged != int64(m.Reneged) {
		t.Errorf("terminal counters served=%d reneged=%d, want %d/%d", served, reneged, m.Served, m.Reneged)
	}
	phases := map[string]int64{} // phase -> observations
	for _, f := range reg.Gather() {
		if f.Name == "mrvd_dispatch_phase_seconds" {
			for _, s := range f.Samples {
				phases[s.Labels[0]] = s.Count
			}
		}
	}
	for _, phase := range []string{"build", "dispatch", "apply"} {
		if got := phases[phase]; got != int64(m.Batches) {
			t.Errorf("phase %q count = %d, want %d batches", phase, got, m.Batches)
		}
	}
	// The final admit step may run without a dispatch step, so admit
	// rounds can exceed Batches by the tail step but never lag.
	if got := phases["admit"]; got < int64(m.Batches) {
		t.Errorf("admit phase count = %d, want >= %d", got, m.Batches)
	}
}

// TestEngineObsRegistryOnlyNoTracer checks the registry-only
// configuration records counters without building span state.
func TestEngineObsRegistryOnlyNoTracer(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := simpleConfig()
	cfg.Obs = ObsConfig{Registry: reg}
	orders, starts := obsOrders()
	if _, err := New(cfg, orders, starts).Run(context.Background(), takeAll{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mrvd_orders_admitted_total", "").Value(); got != 3 {
		t.Errorf("admitted counter = %d, want 3", got)
	}
}

// timedDispatcher times each Assign call with its own clock, beside the
// engine's stopwatch.
type timedDispatcher struct {
	Dispatcher
	secs []float64
}

func (d *timedDispatcher) Assign(ctx *Context) []Assignment {
	start := time.Now()
	out := d.Dispatcher.Assign(ctx)
	d.secs = append(d.secs, time.Since(start).Seconds())
	return out
}

// TestDispatchPhaseResolvesMicroseconds checks that a replay whose
// batches take microseconds reports its dispatch-phase p95 in
// microseconds, from Metrics and from the registry alike: below the
// 0.5 ms a coarser layout's first bucket would report, and within the
// layout's resolution (a factor of 2.5) of the p95 the dispatcher's
// own clock measured.
func TestDispatchPhaseResolvesMicroseconds(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := simpleConfig()
	cfg.Obs = ObsConfig{Registry: reg}
	orders, starts := obsOrders()
	d := &timedDispatcher{Dispatcher: takeAll{}}
	m, err := New(cfg, orders, starts).Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if m.DispatchPhase.Count != int64(m.Batches) || len(d.secs) != m.Batches {
		t.Fatalf("timed %d batches, dispatcher saw %d, want %d", m.DispatchPhase.Count, len(d.secs), m.Batches)
	}
	slices.Sort(d.secs)
	// The engine's reading of a batch includes the dispatcher's, plus
	// a clock read; the slack covers that on a slow or shared machine.
	ceiling := 2.5*stats.NearestRank(d.secs, 0.95) + 10e-6
	var gathered obs.HistogramSnapshot
	for _, f := range reg.Gather() {
		for _, s := range f.Samples {
			if f.Name == "mrvd_dispatch_phase_seconds" && s.Labels[0] == "dispatch" {
				gathered = s.Snapshot(f.Bounds)
			}
		}
	}
	if gathered.Count != m.DispatchPhase.Count {
		t.Fatalf("registry timed %d batches, Metrics %d", gathered.Count, m.DispatchPhase.Count)
	}
	checkP95(t, "registry", gathered.Quantile(0.95), ceiling)
	checkP95(t, "Metrics", m.BatchSecondsQuantile(0.95), ceiling)
}

func checkP95(t *testing.T, from string, p95, ceiling float64) {
	t.Helper()
	if !(p95 > 0 && p95 < 0.0005 && p95 <= ceiling) {
		t.Errorf("%s dispatch p95 = %.7fs, want in (0, min(0.0005, %.7f)]", from, p95, ceiling)
	}
}
