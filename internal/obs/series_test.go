package obs

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"
)

func tickAt(c *Collector, sec int64) { c.Tick(time.Unix(sec, 0)) }

func findSeries(ts TimeSeries, family, stat string, labels map[string]string) *SeriesDump {
	for i := range ts.Series {
		s := &ts.Series[i]
		if s.Family != family || s.Stat != stat {
			continue
		}
		if len(labels) != len(s.Labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
			}
		}
		if match {
			return s
		}
	}
	return nil
}

func TestCollectorCounterRateAndReset(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("reqs_total", "requests")
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 8})

	ctr.Add(10)
	tickAt(c, 100) // first sight: no delta
	ctr.Add(30)
	tickAt(c, 101) // delta 30
	// Simulate a process restart: the counter shrinks.
	ctr.v.Store(5)
	tickAt(c, 102) // reset: the restarted value IS the window
	ctr.Add(7)
	tickAt(c, 103) // delta 7

	ts := c.Dump()
	s := findSeries(ts, "reqs_total", StatRate, nil)
	if s == nil {
		t.Fatalf("missing reqs_total rate series in %+v", ts.Series)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(s.Points))
	}
	if s.Points[0] != nil {
		t.Errorf("first-sight window should be null, got %v", *s.Points[0])
	}
	for i, want := range []float64{30, 5, 7} {
		p := s.Points[i+1]
		if p == nil || *p != want {
			t.Errorf("point[%d] = %v, want %v", i+1, p, want)
		}
	}
}

func TestCollectorRingWraparound(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("depth", "queue depth").With()
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 4})

	for i := int64(0); i < 10; i++ {
		g.Set(float64(i))
		tickAt(c, 100+i)
	}
	ts := c.Dump()
	if ts.Windows != 10 || ts.Capacity != 4 {
		t.Fatalf("windows=%d capacity=%d, want 10/4", ts.Windows, ts.Capacity)
	}
	if len(ts.Times) != 4 {
		t.Fatalf("times len = %d, want 4", len(ts.Times))
	}
	// Oldest retained window is i=6 (t=106), newest i=9 (t=109).
	for i, wantT := range []float64{106, 107, 108, 109} {
		if ts.Times[i] != wantT {
			t.Errorf("times[%d] = %v, want %v", i, ts.Times[i], wantT)
		}
	}
	s := findSeries(ts, "depth", StatValue, nil)
	if s == nil {
		t.Fatal("missing depth series")
	}
	for i, want := range []float64{6, 7, 8, 9} {
		if s.Points[i] == nil || *s.Points[i] != want {
			t.Errorf("point[%d] = %v, want %v", i, s.Points[i], want)
		}
	}
}

// A series that appears after the ring has wrapped must not inherit
// stale points from instruments that stopped reporting.
func TestCollectorLateSeriesAndDisappearance(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("early", "appears first").With()
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 3})

	g.Set(1)
	tickAt(c, 100)
	tickAt(c, 101)
	late := r.GaugeVec("late", "appears later").With()
	late.Set(42)
	g.Set(2)
	for i := int64(2); i < 6; i++ {
		tickAt(c, 100+i)
	}
	ts := c.Dump()
	l := findSeries(ts, "late", StatValue, nil)
	if l == nil {
		t.Fatal("missing late series")
	}
	for i, p := range l.Points {
		if p == nil || *p != 42 {
			t.Errorf("late point[%d] = %v, want 42", i, p)
		}
	}
}

func TestHistogramSnapshotSubReset(t *testing.T) {
	prev := HistogramSnapshot{Bounds: []float64{1, 2}, Buckets: []int64{5, 3, 1}, Count: 9, Sum: 12}
	cur := HistogramSnapshot{Bounds: []float64{1, 2}, Buckets: []int64{7, 3, 2}, Count: 12, Sum: 18}
	d := cur.Sub(prev)
	if d.Count != 3 || d.Sum != 6 || d.Buckets[0] != 2 || d.Buckets[1] != 0 || d.Buckets[2] != 1 {
		t.Errorf("delta = %+v", d)
	}
	// Reset: a shrinking bucket yields the current cumulative state.
	reset := HistogramSnapshot{Bounds: []float64{1, 2}, Buckets: []int64{1, 0, 0}, Count: 1, Sum: 0.5}
	d = reset.Sub(prev)
	if d.Count != 1 || d.Buckets[0] != 1 {
		t.Errorf("reset delta = %+v, want the current state back", d)
	}
}

// The interpolated quantile must land inside the bucket that owns its
// rank: above the bucket's lower bound (0 for the first) and at most
// its upper bound.
func TestHistogramQuantileInterpolationPinned(t *testing.T) {
	// owner returns the bounds of the bucket holding the nearest-rank
	// observation, ok false when that is the +Inf overflow bucket.
	owner := func(h HistogramSnapshot, p float64) (lo, hi float64, ok bool) {
		rank := max(int64(math.Ceil(p*float64(h.Count))), 1)
		var cum int64
		for i, c := range h.Buckets {
			if cum += c; cum < rank {
				continue
			}
			if i == len(h.Bounds) {
				return 0, 0, false
			}
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			return lo, h.Bounds[i], true
		}
		return 0, 0, false
	}
	// Microsecond batch timings over the default layout, on a bound and
	// past the last one too.
	timings := HistogramSnapshot{Bounds: DefBuckets, Buckets: make([]int64, len(DefBuckets)+1)}
	for _, v := range []float64{3e-6, 4e-6, 5e-6, 7e-6, 1.2e-5, 1.5e-5, 4e-5, 3e-4, 0.5, 12} {
		timings.Observe(v)
	}
	if timings.Count != 10 || timings.Buckets[2] != 3 || timings.Buckets[len(DefBuckets)] != 1 {
		t.Fatalf("Observe filed %+v", timings)
	}
	h := HistogramSnapshot{Bounds: []float64{0.1, 0.5, 1, 5, 10}, Buckets: []int64{4, 10, 20, 5, 1, 0}, Count: 40, Sum: 31}
	for _, s := range []HistogramSnapshot{
		h,
		timings,
	} {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.51, 0.75, 0.9, 0.95, 0.99, 1} {
			lo, hi, ok := owner(s, p)
			if !ok {
				continue
			}
			if q := s.Quantile(p); q <= lo || q > hi {
				t.Errorf("bounds %v, p=%v: interpolated %v outside its bucket (%v, %v]", s.Bounds, p, q, lo, hi)
			}
		}
	}

	// Exact interpolation values, pinned: rank p*40 within bucket 2
	// (bounds 0.5..1, 20 entries, 14 cumulative before).
	got := h.Quantile(0.5) // rank 20 -> 0.5 + 0.5*(20-14)/20
	want := 0.5 + 0.5*6.0/20.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}

	// Overflow bucket reports the largest finite bound.
	over := HistogramSnapshot{Bounds: []float64{1, 2}, Buckets: []int64{0, 0, 5}, Count: 5}
	if q := over.Quantile(0.99); q != 2 {
		t.Errorf("overflow quantile = %v, want 2", q)
	}
	// Empty snapshot: NaN, distinguishing "no data" from zero.
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty quantile = %v, want NaN", q)
	}
}

func TestCollectorHistogramWindows(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 4})
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 8})

	h.Observe(0.5)
	h.Observe(1.5)
	tickAt(c, 100) // first sight
	h.Observe(3)
	h.Observe(3)
	tickAt(c, 101) // window: two obs in bucket (2,4]
	tickAt(c, 102) // empty window

	ts := c.Dump()
	rate := findSeries(ts, "lat_seconds", StatRate, nil)
	p95 := findSeries(ts, "lat_seconds", StatP95, nil)
	mean := findSeries(ts, "lat_seconds", StatMean, nil)
	if rate == nil || p95 == nil || mean == nil {
		t.Fatal("missing histogram-derived series")
	}
	if rate.Points[0] != nil {
		t.Errorf("first-sight histogram window should be null, got %v", *rate.Points[0])
	}
	if rate.Points[1] == nil || *rate.Points[1] != 2 {
		t.Errorf("window rate = %v, want 2", rate.Points[1])
	}
	if mean.Points[1] == nil || *mean.Points[1] != 3 {
		t.Errorf("window mean = %v, want 3", mean.Points[1])
	}
	if p95.Points[1] == nil || *p95.Points[1] <= 2 || *p95.Points[1] > 4 {
		t.Errorf("window p95 = %v, want in (2,4]", p95.Points[1])
	}
	if rate.Points[2] != nil || p95.Points[2] != nil || mean.Points[2] != nil {
		t.Error("empty window should dump null for all histogram stats")
	}
}

func TestCollectorDumpMarshalsToJSON(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "gauge").With().Set(1)
	h := r.Histogram("h_seconds", "hist", []float64{1})
	h.Observe(0.5)
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 4})
	tickAt(c, 100)
	tickAt(c, 101)
	b, err := json.Marshal(c.Dump())
	if err != nil {
		t.Fatalf("Dump must marshal (no NaN may leak): %v", err)
	}
	var back TimeSeries
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Windows != 2 || len(back.Times) != 2 {
		t.Errorf("round-trip windows=%d times=%d", back.Windows, len(back.Times))
	}
}

func TestCollectorOnWindowValues(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("c_total", "counter")
	var snaps []WindowSnapshot
	c := NewCollector(CollectorConfig{
		Registry: r, Interval: time.Second, Windows: 4,
		OnWindow: func(w WindowSnapshot) { snaps = append(snaps, w) },
	})
	ctr.Add(5)
	tickAt(c, 100)
	ctr.Add(3)
	tickAt(c, 101)
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	if snaps[0].Seq != 0 || snaps[1].Seq != 1 {
		t.Errorf("seqs = %d,%d", snaps[0].Seq, snaps[1].Seq)
	}
	if snaps[1].State != StateOK {
		t.Errorf("state = %q", snaps[1].State)
	}
	if v, ok := snaps[1].Values["c_total"]; !ok || v != 3 {
		t.Errorf("values = %v, want c_total=3", snaps[1].Values)
	}
	if _, ok := snaps[0].Values["c_total"]; ok {
		t.Error("first-sight window must not report a counter rate")
	}
	if b, err := json.Marshal(snaps[1]); err != nil {
		t.Errorf("snapshot must marshal: %v (%s)", err, b)
	}
}

func TestCollectorStartStopNoLeak(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Add(1)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c := NewCollector(CollectorConfig{Registry: r, Interval: time.Millisecond, Windows: 4})
		c.Start()
		time.Sleep(5 * time.Millisecond)
		c.Stop()
		c.Stop() // idempotent
	}
	// A never-started collector must stop immediately, not hang.
	NewCollector(CollectorConfig{Registry: r}).Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestCollectorConcurrentDump(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("busy_total", "busy")
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Millisecond, Windows: 16})
	c.Start()
	defer c.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ctr.Add(1)
			c.Dump()
		}
	}()
	<-done
}
