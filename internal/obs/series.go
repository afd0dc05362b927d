package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// HistogramSnapshot is one histogram state over explicit bounds:
// either a cumulative Gather snapshot or a windowed delta between two
// of them. It is the unit the time-series collector rings and the SLO
// engine interpolates quantiles from.
type HistogramSnapshot struct {
	// Bounds are the sorted finite bucket upper bounds; Buckets holds
	// exact (non-cumulative) per-bucket counts, len(Bounds)+1 with a
	// final +Inf overflow bucket.
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Sub returns the windowed delta h - prev: per-bucket count deltas,
// count and sum. A counter reset (any bucket shrinking) yields h
// itself — the instrument restarted, so the current cumulative state
// is the best available window.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Buckets) != len(h.Buckets) {
		return h
	}
	d := HistogramSnapshot{
		Bounds:  h.Bounds,
		Buckets: make([]int64, len(h.Buckets)),
		Count:   h.Count - prev.Count,
		Sum:     h.Sum - prev.Sum,
	}
	for i := range h.Buckets {
		d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
		if d.Buckets[i] < 0 {
			return h // reset
		}
	}
	if d.Count < 0 {
		return h
	}
	return d
}

// Merge accumulates other into h in place (bounds must match; Merge
// into a zero snapshot adopts other's shape).
func (h *HistogramSnapshot) Merge(other HistogramSnapshot) {
	if h.Buckets == nil {
		h.Bounds = other.Bounds
		h.Buckets = append([]int64(nil), other.Buckets...)
		h.Count, h.Sum = other.Count, other.Sum
		return
	}
	if len(other.Buckets) != len(h.Buckets) {
		return
	}
	for i := range other.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
}

// Observe adds one observation in place: the single-writer form of
// Histogram.Observe, for a snapshot that is itself the record (an
// engine's own dispatch-phase times). Buckets must already hold
// len(Bounds)+1 entries.
func (h *HistogramSnapshot) Observe(v float64) {
	h.Buckets[sort.SearchFloat64s(h.Bounds, v)]++
	h.Count++
	h.Sum += v
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear
// interpolation inside the bucket holding the rank — the
// histogram_quantile estimator. The estimate always lands inside the
// owning bucket: lower bound (0 for the first bucket) < q <= upper
// bound. A rank in the +Inf overflow bucket reports the highest finite
// bound, and an empty snapshot reports NaN (the time-series layer
// distinguishes "no data this window" from a legitimate zero).
func (h HistogramSnapshot) Quantile(p float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cum int64
	for i, c := range h.Buckets {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward; report the largest finite bound (or NaN when the
			// histogram has no finite buckets at all).
			if len(h.Bounds) == 0 {
				return math.NaN()
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	if len(h.Bounds) == 0 {
		return math.NaN()
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Mean returns the windowed mean observation (NaN when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Series stat kinds, the derivation applied to a metric per window.
const (
	StatRate  = "rate"  // counter: per-second delta
	StatValue = "value" // gauge: instantaneous value
	StatDelta = "delta" // gauge: change across the rule window
	StatMean  = "mean"  // histogram: windowed sum/count
	StatP50   = "p50"   // histogram: interpolated windowed quantiles
	StatP95   = "p95"
	StatP99   = "p99"
)

// SeriesDump is one exported time series: the family it derives from,
// its label pairs, the derivation stat, and one point per retained
// window, oldest first. Missing windows (series appeared late, no
// observations for a quantile) are null.
type SeriesDump struct {
	Family string            `json:"family"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"` // counter | gauge | histogram
	Stat   string            `json:"stat"`
	Points []*float64        `json:"points"`
}

// TimeSeries is the collector's full ring-buffer dump — the
// GET /v1/timeseries payload and mrvd-top's feed.
type TimeSeries struct {
	// IntervalSeconds is the collection interval; Capacity the ring
	// size in windows; Windows the total windows collected since start
	// (>= len(Times) once the ring wraps).
	IntervalSeconds float64 `json:"interval_seconds"`
	Capacity        int     `json:"capacity"`
	Windows         int64   `json:"windows"`
	// Times are the retained window timestamps (unix seconds), oldest
	// first; every series' Points align with it.
	Times  []float64    `json:"times"`
	Series []SeriesDump `json:"series"`
	Health Health       `json:"health"`
}

// CollectorConfig parameterizes a Collector.
type CollectorConfig struct {
	// Registry is the metrics source (required).
	Registry *Registry
	// Interval is the collection period (default 1s).
	Interval time.Duration
	// Windows is the ring capacity (default 120 — two minutes of
	// history at the default interval).
	Windows int
	// Rules is the SLO rule set evaluated each window (may be empty).
	Rules []Rule
	// OnWindow, when set, receives one WindowSnapshot per collected
	// window — the gateway's SSE feed. Called outside the collector's
	// lock, on the collector goroutine (or the Tick caller).
	OnWindow func(WindowSnapshot)
}

// WindowSnapshot is the per-window push payload: the window's
// sequence number and wall time, the post-evaluation overall health
// state, any rule transitions this window fired, and the window's
// scalar values keyed "family{label=\"v\"}" (histograms contribute
// :p50/:p95/:p99/:mean/:rate entries). NaN values are omitted, so the
// map marshals cleanly.
type WindowSnapshot struct {
	Seq         int64              `json:"seq"`
	Time        float64            `json:"t"`
	State       State              `json:"state"`
	Transitions []HealthEvent      `json:"transitions,omitempty"`
	Values      map[string]float64 `json:"values,omitempty"`
}

// scalarSeries rings one counter or gauge sample's per-window value.
type scalarSeries struct {
	family     string
	kind       string
	labelNames []string
	labels     []string

	buf  []float64 // ring, NaN where absent
	prev float64   // last cumulative value (counters)
	seen bool
}

// histSeries rings one histogram sample's per-window bucket deltas.
type histSeries struct {
	family     string
	labelNames []string
	labels     []string
	bounds     []float64

	prev HistogramSnapshot // last cumulative state
	seen bool

	buckets [][]int64 // ring of per-window exact bucket deltas
	counts  []int64   // ring
	sums    []float64 // ring
}

// Collector snapshots a Registry on a fixed interval into preallocated
// ring buffers of per-window deltas — counter rates, gauge values and
// windowed histogram states — and evaluates an SLO rule set over them.
// It is one goroutine reading the registry's lock-free instruments on
// a ticker: hot dispatch paths never see it, and an engine run with a
// collector attached stays byte-identical to an uninstrumented one
// (the root package's TestPeakHourOverheads pins the parity under a
// 1 ms interval).
//
// Tick is exported so tests (and callers without a ticker) can drive
// collection deterministically; Start/Stop run the ticker goroutine.
type Collector struct {
	cfg      CollectorConfig
	interval float64 // seconds
	capacity int

	mu      sync.Mutex
	seq     int64     // windows collected
	times   []float64 // ring, unix seconds
	scalars []*scalarSeries
	hists   []*histSeries
	index   map[string]int // family\xffjoinedLabels -> index into scalars or hists
	rules   []ruleState
	events  []HealthEvent // most recent last, capped

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

const maxHealthEvents = 64

// NewCollector builds a collector; call Start (or drive Tick) to
// collect. Panics when cfg.Registry is nil — a collector without a
// source is a programming error, matching the registry's conventions.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Registry == nil {
		panic("obs: NewCollector requires a Registry")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 120
	}
	c := &Collector{
		cfg:      cfg,
		interval: cfg.Interval.Seconds(),
		capacity: cfg.Windows,
		times:    make([]float64, cfg.Windows),
		index:    make(map[string]int),
		rules:    make([]ruleState, len(cfg.Rules)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range c.rules {
		c.rules[i].state = StateOK
	}
	return c
}

// Start launches the collection goroutine. Safe to call once; use
// Stop to halt it. A stopped collector still serves Dump/Health.
func (c *Collector) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case now := <-t.C:
					c.Tick(now)
				}
			}
		}()
	})
}

// Stop halts the collection goroutine and waits for it to exit.
// Idempotent; a never-started collector stops immediately.
func (c *Collector) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: nothing to wait for
	<-c.done
}

// Tick ingests one window at the given wall time: it gathers the
// registry, deltas every sample against the previous window into the
// rings, evaluates the rule set, and fires OnWindow.
func (c *Collector) Tick(now time.Time) {
	fams := c.cfg.Registry.Gather()
	wall := float64(now.UnixNano()) / 1e9

	c.mu.Lock()
	idx := int(c.seq % int64(c.capacity))
	c.times[idx] = wall
	// Pre-clear this window's slot: a series the registry no longer
	// reports (or that appears later) must not inherit a stale point
	// from the previous lap of the ring.
	for _, s := range c.scalars {
		s.buf[idx] = math.NaN()
	}
	for _, h := range c.hists {
		clearInt64(h.buckets[idx])
		h.counts[idx] = 0
		h.sums[idx] = math.NaN()
	}
	for fi := range fams {
		f := &fams[fi]
		for si := range f.Samples {
			c.ingest(idx, f, &f.Samples[si])
		}
	}
	c.seq++
	transitions := c.evaluateRules(wall)
	state := c.worstLocked()
	var snap WindowSnapshot
	if c.cfg.OnWindow != nil {
		snap = WindowSnapshot{
			Seq: c.seq - 1, Time: wall, State: state,
			Transitions: transitions,
			Values:      c.latestValuesLocked(idx),
		}
	}
	c.mu.Unlock()

	if c.cfg.OnWindow != nil {
		c.cfg.OnWindow(snap)
	}
}

func clearInt64(v []int64) {
	for i := range v {
		v[i] = 0
	}
}

// ingest folds one gathered sample into the window at ring index idx.
func (c *Collector) ingest(idx int, f *Family, s *Sample) {
	key := f.Name + "\xff" + labelKey(s.Labels)
	switch f.Kind {
	case kindHistogram:
		i, ok := c.index[key]
		if !ok {
			h := &histSeries{
				family:     f.Name,
				labelNames: f.Labels,
				labels:     append([]string(nil), s.Labels...),
				bounds:     f.Bounds,
				buckets:    make([][]int64, c.capacity),
				counts:     make([]int64, c.capacity),
				sums:       make([]float64, c.capacity),
			}
			for w := range h.buckets {
				h.buckets[w] = make([]int64, len(s.Buckets))
			}
			for w := range h.sums {
				h.sums[w] = math.NaN()
			}
			i = len(c.hists)
			c.hists = append(c.hists, h)
			c.index[key] = i
		}
		h := c.hists[i]
		cur := s.Snapshot(h.bounds)
		if h.seen {
			d := cur.Sub(h.prev)
			copy(h.buckets[idx], d.Buckets)
			h.counts[idx] = d.Count
			h.sums[idx] = d.Sum
		} else {
			// First sight: no previous cumulative state, so there is no
			// window delta — the slot stays empty rather than reporting
			// the whole history as one spike.
			h.seen = true
		}
		h.prev = cur

	default: // counter, gauge
		i, ok := c.index[key]
		if !ok {
			sc := &scalarSeries{
				family:     f.Name,
				kind:       f.Kind,
				labelNames: f.Labels,
				labels:     append([]string(nil), s.Labels...),
				buf:        make([]float64, c.capacity),
			}
			for w := range sc.buf {
				sc.buf[w] = math.NaN()
			}
			i = len(c.scalars)
			c.scalars = append(c.scalars, sc)
			c.index[key] = i
		}
		sc := c.scalars[i]
		if f.Kind == kindGauge {
			sc.buf[idx] = s.Value
			sc.seen = true
			return
		}
		// Counter: per-second rate of the window delta. A shrinking
		// counter is a reset — the restarted value is the whole delta.
		if sc.seen {
			delta := s.Value - sc.prev
			if delta < 0 {
				delta = s.Value
			}
			sc.buf[idx] = delta / c.interval
		}
		sc.prev = s.Value
		sc.seen = true
	}
}

// ringOrder returns the retained window count and a function mapping
// age (0 = newest) to ring index. Caller holds c.mu.
func (c *Collector) ringOrder() (n int, at func(age int) int) {
	n = c.capacity
	if c.seq < int64(n) {
		n = int(c.seq)
	}
	newest := int((c.seq - 1) % int64(c.capacity))
	return n, func(age int) int {
		i := newest - age
		if i < 0 {
			i += c.capacity
		}
		return i
	}
}

// windowHist merges a histogram series' last w windows into one
// snapshot. Caller holds c.mu.
func (h *histSeries) window(c *Collector, w int) HistogramSnapshot {
	n, at := c.ringOrder()
	if w > n {
		w = n
	}
	out := HistogramSnapshot{Bounds: h.bounds}
	if len(h.buckets) > 0 {
		out.Buckets = make([]int64, len(h.buckets[0]))
	}
	for age := 0; age < w; age++ {
		i := at(age)
		for b := range h.buckets[i] {
			out.Buckets[b] += h.buckets[i][b]
		}
		out.Count += h.counts[i]
		if !math.IsNaN(h.sums[i]) {
			out.Sum += h.sums[i]
		}
	}
	return out
}

// latestValuesLocked flattens the newest window into the OnWindow
// value map. Caller holds c.mu.
func (c *Collector) latestValuesLocked(idx int) map[string]float64 {
	vals := make(map[string]float64, len(c.scalars)+5*len(c.hists))
	for _, s := range c.scalars {
		if v := s.buf[idx]; !math.IsNaN(v) {
			vals[seriesKey(s.family, s.labelNames, s.labels, "")] = v
		}
	}
	for _, h := range c.hists {
		if h.counts[idx] == 0 {
			continue
		}
		win := HistogramSnapshot{Bounds: h.bounds, Buckets: h.buckets[idx], Count: h.counts[idx], Sum: h.sums[idx]}
		base := seriesKey(h.family, h.labelNames, h.labels, "")
		vals[base+":rate"] = float64(win.Count) / c.interval
		vals[base+":mean"] = win.Mean()
		vals[base+":p50"] = win.Quantile(0.50)
		vals[base+":p95"] = win.Quantile(0.95)
		vals[base+":p99"] = win.Quantile(0.99)
	}
	return vals
}

// seriesKey renders family{label="v"} plus an optional :stat suffix.
func seriesKey(family string, names, values []string, stat string) string {
	k := family + labelString(names, values, "", "")
	if stat != "" {
		k += ":" + stat
	}
	return k
}

// Dump exports every retained window: counter-rate and gauge-value
// series plus p50/p95/p99/mean/rate series per histogram, all aligned
// with Times, and the health snapshot.
func (c *Collector) Dump() TimeSeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, at := c.ringOrder()

	ts := TimeSeries{
		IntervalSeconds: c.interval,
		Capacity:        c.capacity,
		Windows:         c.seq,
		Times:           make([]float64, n),
		Health:          c.healthLocked(),
	}
	for age := 0; age < n; age++ {
		ts.Times[n-1-age] = c.times[at(age)]
	}
	point := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		p := v
		return &p
	}
	for _, s := range c.scalars {
		stat := StatRate
		if s.kind == kindGauge {
			stat = StatValue
		}
		d := SeriesDump{
			Family: s.family, Labels: labelMap(s.labelNames, s.labels),
			Kind: s.kind, Stat: stat, Points: make([]*float64, n),
		}
		for age := 0; age < n; age++ {
			d.Points[n-1-age] = point(s.buf[at(age)])
		}
		ts.Series = append(ts.Series, d)
	}
	for _, h := range c.hists {
		stats := []struct {
			name string
			fn   func(HistogramSnapshot) float64
		}{
			{StatRate, func(w HistogramSnapshot) float64 { return float64(w.Count) / c.interval }},
			{StatMean, HistogramSnapshot.Mean},
			{StatP50, func(w HistogramSnapshot) float64 { return w.Quantile(0.50) }},
			{StatP95, func(w HistogramSnapshot) float64 { return w.Quantile(0.95) }},
			{StatP99, func(w HistogramSnapshot) float64 { return w.Quantile(0.99) }},
		}
		dumps := make([]SeriesDump, len(stats))
		for si, st := range stats {
			dumps[si] = SeriesDump{
				Family: h.family, Labels: labelMap(h.labelNames, h.labels),
				Kind: kindHistogram, Stat: st.name, Points: make([]*float64, n),
			}
		}
		for age := 0; age < n; age++ {
			i := at(age)
			if h.counts[i] == 0 {
				continue // all five stay null for an empty window
			}
			win := HistogramSnapshot{Bounds: h.bounds, Buckets: h.buckets[i], Count: h.counts[i], Sum: h.sums[i]}
			for si, st := range stats {
				dumps[si].Points[n-1-age] = point(st.fn(win))
			}
		}
		ts.Series = append(ts.Series, dumps...)
	}
	return ts
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		m[n] = v
	}
	return m
}
