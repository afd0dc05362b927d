package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"mrvd/internal/core"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: quantile must sort a copy
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 0.10, 1}, {10, 0.50, 5}, {10, 0.51, 6}, {10, 0.95, 10}, {10, 0.99, 10}, {10, 1, 10},
		{97, 0.50, 49}, {97, 0.95, 93}, {97, 0.99, 97}, {97, 0.999, 97}, {97, 0.01, 1},
	}
	for _, c := range cases {
		xs := seq(c.n)
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("quantile reordered its input")
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spanBatch, parent: 0, start: 0, end: 100},       // id 1
		{kind: spanAdmitBuild, parent: 1, start: 10, end: 30},  // id 2
		{kind: spanAssign, parent: 1, start: 20, end: 50},      // id 3, overlaps id 2
		{kind: spanApply, parent: 1, start: 90, end: 120},      // id 4, clipped to the parent
		{kind: spanMatrix, parent: 2, start: 12, end: 17},      // id 5, grandchild
		{kind: spanBatch, parent: 0, start: 100, end: 130},     // id 6, childless root
		{kind: spanBuildEstimate, parent: 6, start: 0, end: 0}, // id 7, empty child
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90), // union of children, not their sum
		20 - 5,
		30,
		30,
		5,
		30,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i+1, got[i], want[i])
		}
	}
}

// fakeClock advances only when slept on or when an operation "runs".
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	plan := make([]plannedOp, 6)
	// 100 ops/s: one op due every 10 ms. Each takes 5 ms, except op 1,
	// which stalls for 35 ms and so delays ops 2, 3 and 4.
	service := []time.Duration{5, 35, 5, 5, 5, 5}
	recs := openLoop(clk, start, 100, plan, 40, 1, func(_ plannedOp, rec *opRecord) {
		clk.now = clk.now.Add(service[rec.index-40] * time.Millisecond)
	})
	wantLate := []float64{0, 0, 25, 20, 15, 10} // start - due, ms
	wantLat := []float64{5, 35, 30, 25, 20, 15} // end - due, ms: the stall's queueing lands on the delayed ops
	for i, r := range recs {
		if r.index != 40+i {
			t.Errorf("op %d carries index %d, want %d", i, r.index, 40+i)
		}
		if due := start.Add(time.Duration(i) * 10 * time.Millisecond); !r.due.Equal(due) {
			t.Errorf("op %d due %v, want %v", i, r.due, due)
		}
		if got := r.latenessMS(); math.Abs(got-wantLate[i]) > 1e-9 {
			t.Errorf("op %d lateness = %g ms, want %g", i, got, wantLate[i])
		}
		if got := r.latencyMS(); math.Abs(got-wantLat[i]) > 1e-9 {
			t.Errorf("op %d latency = %g ms, want %g", i, got, wantLat[i])
		}
	}
	if got := offeredPerS(recs, start); math.Abs(got-6/0.060) > 1e-9 {
		t.Errorf("offered rate = %g/s, want %g (6 ops started by t=60ms)", got, 6/0.060)
	}
}

func TestOpenLatenciesAreWindowed(t *testing.T) {
	start := time.Unix(0, 0)
	var recs []opRecord
	// Five 1 s windows, each with 20 assigned long-polls at 1 ms and 4
	// reads at 2 ms; a stall in window 2 would own a whole-phase p95.
	for w := 0; w < liveWindows; w++ {
		for i := 0; i < 24; i++ {
			due := start.Add(time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond)
			rec := opRecord{kind: opSubmitWait, status: "assigned", due: due, end: due.Add(time.Millisecond)}
			switch {
			case i >= 20:
				rec = opRecord{kind: opReadOrder, due: due, end: due.Add(2 * time.Millisecond)}
			case w == 2 && i >= 10:
				rec.end = due.Add(500 * time.Millisecond)
			case i == 0:
				rec.status = "expired" // an outcome, but not a submit latency sample
			}
			recs = append(recs, rec)
		}
	}
	recs = append(recs, opRecord{kind: opSubmitWait, failed: true, due: start, end: start.Add(time.Hour)})
	got := openLatencies(recs, start, liveWindows*time.Second)
	want := liveLatencies{submitP50: 1, submitP95: 1, readP50: 2, submits: 5 * 19, reads: 5 * 4}
	if got != want {
		t.Errorf("open-loop latencies = %+v, want %+v", got, want)
	}
}

func TestSetupRepeatsFitTheBudget(t *testing.T) {
	now := time.Now()
	ago := func(s float64) time.Time { return now.Add(-time.Duration(s * float64(time.Second))) }
	repeat := func(n int, s float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s
		}
		return xs
	}
	cases := []struct {
		name   string
		setups []float64
		begun  time.Time
		want   bool
	}{
		{"fewer than the minimum, however slow", repeat(2, 10), ago(20), true},
		{"day_gc: three of 4 s", repeat(3, 4), ago(12), false},
		{"peak_shard2: a fourth of 1 s fits", repeat(3, 1), ago(3), true},
		{"peak_shard2: a seventh does not", repeat(6, 1), ago(6), false},
		{"live_http: capped", repeat(maxSetupRepeats, 0.07), ago(1.1), false},
	}
	for _, c := range cases {
		if got := anotherSetup(c.setups, c.begun); got != c.want {
			t.Errorf("%s: another set-up = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAllocationAddedPerOrder(t *testing.T) {
	// Batches every 10 ms from t=0: the idle stretch [5 ms, 45 ms) holds
	// four of them, the closed loop [100 ms, 200 ms) ten.
	probe := &liveProbe{batchClock: *newBatchClock(32)}
	for i := 0; i < 30; i++ {
		probe.at = append(probe.at, int64(i)*int64(10*time.Millisecond))
	}
	idle := idleSample{from: 5 * time.Millisecond, to: 45 * time.Millisecond, bytes: 400, mallocs: 12}
	bytes, mallocs := idle.perBatch(probe)
	if bytes != 100 || mallocs != 3 {
		t.Fatalf("empty batch = %g bytes, %g mallocs, want 100 and 3", bytes, mallocs)
	}
	// The interval is half open: the batch at 100 ms is in, the one at 200 ms out.
	batches := probe.batchesBetween(100*time.Millisecond, 200*time.Millisecond)
	if batches != 10 {
		t.Fatalf("batches in the closed loop = %d, want 10", batches)
	}
	// 2,000 bytes over ten batches and five orders: 1,000 are the batches'.
	if got := addedPerOrder(2000, bytes, batches, 5); got != 200 {
		t.Errorf("added per order = %g bytes, want 200", got)
	}
}

// smallPeak is the first 200 orders of a busy morning peak and a
// 40-driver fleet, generated once for the transparency tests.
var smallPeak = sync.OnceValue(func() *instance {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 60000, Seed: 31})
	rng := rand.New(rand.NewSource(5))
	day := city.GenerateDay(0, rng)
	return &instance{
		name: "small", city: city, orders: peakHour(day)[:200], starts: city.InitialDrivers(40, day, rng),
		opts: core.Options{City: city, NumDrivers: 40, Delta: 3, TC: 1200, Horizon: 600, Seed: 5},
		mode: core.PredictNone,
	}
})

func smallInstance(alg string, shards, candidateCap int, road bool) *instance {
	inst := *smallPeak()
	inst.alg, inst.shards, inst.opts.CandidateCap = alg, shards, candidateCap
	if road {
		inst.graph = roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 1, Rows: 16, Cols: 16})
	}
	return &inst
}

func TestWrappersAreTransparent(t *testing.T) {
	cases := []struct {
		name         string
		alg          string
		shards       int
		candidateCap int
		road         bool
	}{
		{"single engine, closed form", "IRG", 0, 0, false},
		{"single engine, road network", "IRG", 0, 0, true},
		{"two shards", "LS", 2, 8, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst := smallInstance(c.alg, c.shards, c.candidateCap, c.road)
			plain := inst.newVariant("plain", c.shards, nil, sim.ObsConfig{})
			want, err := inst.run(plain, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSummary(want.summary); err != nil {
				t.Fatal(err)
			}
			stride := int64(want.summary.Batches) + 1
			tr := newTracer(1024)
			probe := newTraceProbe(tr, len(inst.starts), c.shards > 0, c.road)
			traced := inst.newVariant("traced", c.shards, probe, sim.ObsConfig{})
			for replay := int64(0); replay < 2; replay++ {
				got, err := inst.run(traced, replay, stride)
				if err != nil {
					t.Fatal(err)
				}
				if got.summary != want.summary {
					t.Fatalf("traced replay %d summary %+v\nwant %+v", replay, got.summary, want.summary)
				}
				if c.road && got.coster != want.coster {
					t.Errorf("traced coster counters %+v, plain %+v", got.coster, want.coster)
				}
			}
			if len(probe.violations) > 0 {
				t.Errorf("invariant violations: %v", probe.violations)
			}
			roots, waves, assigns := 0, 0, 0
			for _, s := range tr.spans {
				if s.end < s.start {
					t.Fatalf("span %s ends before it starts", spanNames[s.kind])
				}
				switch s.kind {
				case spanBatch:
					roots++
				case spanWave:
					waves++
				case spanAssign:
					assigns++
				}
			}
			// A run that drains early polls once more than it dispatches.
			lanes := max(c.shards, 1)
			if roots < 2*want.summary.Batches || assigns != 2*want.summary.Batches*lanes {
				t.Errorf("%d batch roots and %d assign spans for 2 replays of %d batches on %d lanes", roots, assigns, want.summary.Batches, lanes)
			}
			if c.road && waves == 0 {
				t.Errorf("road replay recorded no admission-wave pricing spans")
			}
			for i, self := range selfTimes(tr.spans) {
				if self < 0 {
					t.Fatalf("span %d (%s) has negative self time %d", i+1, spanNames[tr.spans[i].kind], self)
				}
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of two = %g %g %g, want 0.5 2 3.5", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{103, 104, 102}, true, 0.10, "same"},
		{"worse beyond bound", []float64{100, 101, 99}, []float64{120, 121, 119}, true, 0.10, "worse"},
		{"higher is better, dropped", []float64{100, 101, 99}, []float64{80, 81, 79}, false, 0.10, "worse"},
		{"better beyond bound", []float64{100, 101, 99}, []float64{80, 81, 79}, true, 0.10, "better"},
		{"every run better within bound", []float64{100, 101, 99}, []float64{96, 97, 95}, true, 0.10, "better"},
		{"single runs within bound", []float64{100}, []float64{96}, true, 0.10, "same"},
		{"exact metric, rounding noise", []float64{65.0890, 65.0890, 65.0891}, []float64{65.0889, 65.0889, 65.0889}, true, 0.02, "same"},
		{"spread hides the answer", []float64{100, 140, 70, 120}, []float64{105, 150, 75, 90}, true, 0.10, "unresolved"},
		{"wide spread but separated", []float64{100, 140, 120}, []float64{50, 60, 40}, true, 0.10, "better"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestReportFinish(t *testing.T) {
	rep := newReport("day_gc", 1, 2, false)
	for _, d := range endToEnd[1:] {
		rep.set(d.name, 1, 0)
	}
	rep.set("sim.expired_share", 0.3, 0)
	rep.Attempted = 3
	rep.finish()
	if rep.Correct || rep.Failed != 1 || len(rep.Failures) != 1 {
		t.Errorf("a measured run without setup_s must fail: correct=%v failed=%d %v", rep.Correct, rep.Failed, rep.Failures)
	}
	if _, ok := rep.Extra["sim.expired_share"]; !ok || len(rep.Metrics) != len(endToEnd) {
		t.Errorf("measured run: %d contract metrics, extras %v", len(rep.Metrics), rep.Extra)
	}

	traced := newReport("day_gc", 1, 2, true)
	traced.set("sim.batches", 28800, 0)
	traced.Attempted = 2
	traced.finish()
	if !traced.Correct || len(traced.Metrics) != len(perLayer) {
		t.Errorf("traced run: correct=%v with %d metrics, want %d", traced.Correct, len(traced.Metrics), len(perLayer))
	}
	if m := traced.Metrics["shard.rounds"]; m.Value != 0 || m.Unit != "count" {
		t.Errorf("idle layer reports %+v, want 0 count", m)
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json and the metric tables in
// step, and checks the file against the limits of its contract.
func TestSpecMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []boundedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), the tables say %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q / unit %q is outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d = %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	// 4 + 22 runs per workload, their set-up and two builds must fit in
	// 3420 s; 12 s per run is set-up, warm-up and process start.
	if total := (4 + 22*len(spec.Workloads)) * (spec.RunSeconds + 12); total > 3420 {
		t.Errorf("run_seconds %d puts the driver's %d runs at ~%d s, over its 3420 s cap", spec.RunSeconds, 4+22*len(spec.Workloads), total)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}
