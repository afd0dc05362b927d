package obs

import (
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreateIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "other help ignored")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	h1 := r.HistogramVec("y_seconds", "h", DefBuckets, "phase").With("a")
	h2 := r.HistogramVec("y_seconds", "h", DefBuckets, "phase").With("a")
	if h1 != h2 {
		t.Fatal("same name+label returned distinct histograms")
	}
	if h3 := r.HistogramVec("y_seconds", "h", DefBuckets, "phase").With("b"); h3 == h1 {
		t.Fatal("distinct labels shared one histogram")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeVec("x_total", "help").With()
}

func TestVecArityMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// exactly on a bucket's upper bound counts into that bucket (v <= le),
// matching the Prometheus text exposition contract.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "h", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.0000001, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 2} // (-inf,1], (1,2], (2,5], (5,+inf)
	buckets, count, sum := h.snapshot()
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if len(buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(buckets), len(want))
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], want[i])
		}
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 5 + 5.0000001 + 100
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}

	// The text form must carry cumulative counts: 2, 4, 5, 7.
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`b_seconds_bucket{le="1"} 2`,
		`b_seconds_bucket{le="2"} 4`,
		`b_seconds_bucket{le="5"} 5`,
		`b_seconds_bucket{le="+Inf"} 7`,
		`b_seconds_count 7`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// A histogram sample's quantile, read through Snapshot, lands in the
// bucket holding the nearest-rank observation: (lo, hi] of that
// bucket, interpolated by rank. The overflow bucket reports the
// highest finite bound, and an empty sample NaN.
func TestSampleQuantileNearestRank(t *testing.T) {
	bounds := []float64{1, 2, 5}
	s := Sample{Buckets: []int64{5, 3, 1, 1}, Count: 10}
	cases := []struct {
		p, lo, hi, want float64
	}{
		{0.50, 0, 1, 1},           // rank 5 inside bucket 0
		{0.51, 1, 2, 1 + 0.1/3},   // rank 6 inside bucket 1
		{0.90, 2, 5, 5},           // rank 9 inside bucket 2
		{1.00, 5, math.Inf(1), 5}, // rank 10 in the overflow bucket
		{0.01, 0, 1, 0.02},        // rank clamps into bucket 0
	}
	h := s.Snapshot(bounds)
	for _, c := range cases {
		got := h.Quantile(c.p)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
		if got < c.lo || got > c.hi || (got == c.lo && c.hi != math.Inf(1)) {
			t.Errorf("Quantile(%v) = %v outside nearest-rank bucket (%v, %v]", c.p, got, c.lo, c.hi)
		}
	}
	if got := (Sample{}).Snapshot(bounds).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

// TestRegistryConcurrentTorture hammers every metric kind from many
// goroutines while a scraper gathers and renders concurrently; run
// under -race it proves the lock discipline, and the final totals
// prove no increment was lost.
func TestRegistryConcurrentTorture(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg, scraperWG sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: text rendering races the writers by design. It runs
	// until the workers join, so it waits on its own group.
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseText(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-run scrape unparseable: %v", err)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker re-registers its instruments: get-or-create
			// must hand all of them the same objects.
			c := r.Counter("t_ops_total", "ops")
			h := r.HistogramVec("t_seconds", "latency", DefBuckets, "phase").With("p")
			v := r.CounterVec("t_by_worker_total", "per worker", "w").With(string(rune('a' + w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 1000)
				v.Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	if got := r.Counter("t_ops_total", "ops").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.HistogramVec("t_seconds", "latency", DefBuckets, "phase").With("p")
	if _, got, _ := h.snapshot(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestWriteTextParseTextRoundtrip renders one of every metric shape and
// reads it back through the strict parser.
func TestWriteTextParseTextRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_orders_total", "orders with \"quotes\" and\nnewline").Add(42)
	r.GaugeVec("rt_depth", "queue depth").With().Set(-1.5)
	r.CounterVec("rt_by_outcome_total", "outcomes", "outcome").With("served").Add(7)
	r.CounterVec("rt_by_outcome_total", "outcomes", "outcome").With("e\"sc\\aped\nvalue").Inc()
	h := r.HistogramVec("rt_seconds", "latency", []float64{0.1, 1}, "phase")
	h.With("dispatch").Observe(0.05)
	h.With("dispatch").Observe(0.5)
	h.With("apply").Observe(3)
	r.CounterFunc("rt_fn_total", "function counter", func() int64 { return 99 })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, b.String())
	}

	checkValue := func(fam, sample string, labels map[string]string, want float64) {
		t.Helper()
		f := fams[fam]
		if f == nil {
			t.Fatalf("family %s missing (have %v)", fam, slices.Sorted(maps.Keys(fams)))
		}
		for _, s := range f.Samples {
			if s.Name != sample {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				if s.Value != want {
					t.Errorf("%s%v = %v, want %v", sample, labels, s.Value, want)
				}
				return
			}
		}
		t.Errorf("sample %s%v not found in %s", sample, labels, fam)
	}

	checkValue("rt_orders_total", "rt_orders_total", nil, 42)
	checkValue("rt_depth", "rt_depth", nil, -1.5)
	checkValue("rt_by_outcome_total", "rt_by_outcome_total", map[string]string{"outcome": "served"}, 7)
	checkValue("rt_by_outcome_total", "rt_by_outcome_total", map[string]string{"outcome": "e\"sc\\aped\nvalue"}, 1)
	checkValue("rt_fn_total", "rt_fn_total", nil, 99)
	if f := fams["rt_seconds"]; f == nil || f.Type != "histogram" {
		t.Fatalf("rt_seconds family missing or untyped: %+v", fams["rt_seconds"])
	}
	checkValue("rt_seconds", "rt_seconds_count", map[string]string{"phase": "dispatch"}, 2)
	checkValue("rt_seconds", "rt_seconds_bucket", map[string]string{"phase": "dispatch", "le": "0.1"}, 1)
	checkValue("rt_seconds", "rt_seconds_bucket", map[string]string{"phase": "dispatch", "le": "+Inf"}, 2)
	checkValue("rt_seconds", "rt_seconds_bucket", map[string]string{"phase": "apply", "le": "1"}, 0)
	checkValue("rt_seconds", "rt_seconds_bucket", map[string]string{"phase": "apply", "le": "+Inf"}, 1)
}

// TestCounterFuncReplaced pins the re-registration contract: the newest
// closure wins, so a fresh session's costers supersede a finished one's.
func TestCounterFuncReplaced(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("cf_total", "h", func() int64 { return 1 })
	r.CounterFunc("cf_total", "h", func() int64 { return 2 })
	fams := r.Gather()
	for _, f := range fams {
		if f.Name == "cf_total" {
			if len(f.Samples) != 1 || f.Samples[0].Value != 2 {
				t.Fatalf("cf_total samples = %+v, want single value 2", f.Samples)
			}
			return
		}
	}
	t.Fatal("cf_total not gathered")
}
