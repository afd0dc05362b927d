// Package obs is the framework's dependency-free observability layer:
// a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, labeled families) with a Prometheus-text exporter, plus
// an order-lifecycle tracer emitting one JSON span per terminal order.
//
// The registry is built for the engine's nil-gate contract: every
// instrumented layer holds a nil *Registry when observability is off
// and pays only a pointer check. Enabled, all writers are lock-free
// atomics (histograms take no lock on Observe), so shard engines and
// HTTP handlers can share one registry without contending.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default histogram bucket layout for batch-phase
// timings (seconds): a 1-2-5 series from 1 µs to 10 s, 22 bounds. A
// batch phase at paper scale takes microseconds and a degraded round
// seconds. An interpolated quantile lands in the bucket that holds the
// exact one, so above 1 µs it is within a factor of 2.5 of it (2 or
// 2.5 per bucket), and below 1 µs within 1 µs.
var DefBuckets = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
	5e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// LatencyBuckets is the default layout for wall-clock request
// latencies (seconds), reaching into minutes for long-polled orders.
var LatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with exact
// (non-cumulative) per-bucket counts; the exposition writer emits the
// cumulative le-form Prometheus expects.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bound
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns per-bucket exact counts (len(bounds)+1, last is
// the +Inf overflow), total and sum, mutually consistent enough for
// exposition (each bucket is read once).
func (h *Histogram) snapshot() (buckets []int64, count int64, sum float64) {
	buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.Sum()
}

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family: an unlabeled singleton or a set
// of labeled children, or a function metric evaluated at export.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64

	mu       sync.Mutex
	fn       func() float64      // function metrics; nil otherwise
	keys     []string            // insertion order of children
	children map[string]any      // labelKey -> *Counter | *Gauge | *Histogram
	labelSet map[string][]string // labelKey -> label values
}

// Registry is a concurrency-safe collection of metric families.
// Registration is get-or-create and idempotent: asking twice for the
// same name returns the same metric object, so independent layers
// (e.g. per-shard engines) can share one registry without
// coordination. Registering an existing name with a different kind or
// label arity panics — that is a programming error.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it on first use.
func (r *Registry) family(name, help, kind string, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labels:   append([]string(nil), labels...),
			bounds:   append([]float64(nil), bounds...),
			children: make(map[string]any),
			labelSet: make(map[string][]string),
		}
		sort.Float64s(f.bounds)
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/%d labels, was %s/%d",
			name, kind, len(labels), f.kind, len(f.labels)))
	}
	return f
}

// child returns the family's metric for the given label values,
// creating it on first use. key "" is the unlabeled singleton.
func (f *family) child(values ...string) any {
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		m = h
	}
	f.children[key] = m
	f.labelSet[key] = append([]string(nil), values...)
	f.keys = append(f.keys, key)
	return m
}

// labelKey joins label values into a map key; \xff cannot appear in a
// metric label, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// Counter returns the named unlabeled counter, registering it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).child().(*Counter)
}

// Histogram returns the named unlabeled histogram with the given
// bucket upper bounds (+Inf implicit), registering it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, buckets, nil).child().(*Histogram)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(values...).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(values...).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(values...).(*Histogram)
}

// CounterFunc registers a counter whose value is fn() evaluated at
// gather time — for layers that keep their own atomic counters (the
// road-network coster) and should not import obs. Re-registering the
// same name replaces fn, so a new session's closures supersede a
// finished one's.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.family(name, help, kindCounter, nil, nil)
	f.mu.Lock()
	f.fn = func() float64 { return float64(fn()) }
	f.mu.Unlock()
}

// GaugeFunc registers a gauge evaluated at gather time; re-registering
// replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Sample is one gathered time series: label values (paired with the
// family's label names) and either a scalar Value or histogram state.
type Sample struct {
	Labels []string
	Value  float64
	// Histogram-only: exact (non-cumulative) per-bucket counts aligned
	// with Family.Bounds plus a final +Inf overflow bucket, total
	// count, and sum of observations.
	Buckets []int64
	Count   int64
	Sum     float64
}

// Family is one gathered metric family snapshot.
type Family struct {
	Name    string
	Help    string
	Kind    string
	Labels  []string
	Bounds  []float64
	Samples []Sample
}

// Snapshot converts a histogram sample into a HistogramSnapshot over
// the family's bucket bounds, the form the time-series layer windows
// and interpolates quantiles from.
func (s Sample) Snapshot(bounds []float64) HistogramSnapshot {
	return HistogramSnapshot{Bounds: bounds, Buckets: s.Buckets, Count: s.Count, Sum: s.Sum}
}

// Gather snapshots every family, sorted by name (samples in first-use
// order) — the structured form behind WriteText and the CLI tables.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		g := Family{Name: f.name, Help: f.help, Kind: f.kind,
			Labels: f.labels, Bounds: f.bounds}
		f.mu.Lock()
		if f.fn != nil {
			g.Samples = append(g.Samples, Sample{Value: f.fn()})
		}
		for _, key := range f.keys {
			s := Sample{Labels: f.labelSet[key]}
			switch m := f.children[key].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				s.Buckets, s.Count, s.Sum = m.snapshot()
			}
			g.Samples = append(g.Samples, s)
		}
		f.mu.Unlock()
		out = append(out, g)
	}
	return out
}

// WriteText writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, cumulative le-form
// histogram buckets with _sum and _count, escaped label values.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.Gather() {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if err := writeSample(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, f Family, s Sample) error {
	if f.Kind != kindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.Name, labelString(f.Labels, s.Labels, "", ""), formatValue(s.Value))
		return err
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		le := "+Inf"
		if i < len(f.Bounds) {
			le = formatValue(f.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.Name, labelString(f.Labels, s.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.Name, labelString(f.Labels, s.Labels, "", ""), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.Name, labelString(f.Labels, s.Labels, "", ""), s.Count)
	return err
}

// labelString renders {k="v",...}; extraName/extraValue append one
// more pair (the histogram le). Empty when there are no pairs.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes backslash, quote and newline the way the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
