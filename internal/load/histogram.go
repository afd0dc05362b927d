package load

import (
	"sort"
	"sync"
	"time"

	"mrvd/internal/stats"
)

// Histogram collects raw latency samples and reports exact quantiles —
// the YCSB "raw measurement" style, which at load-harness scale (tens
// of thousands of samples) is cheaper to reason about than bucket
// boundaries and never flattens sub-millisecond latencies. Safe for
// concurrent Observe.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	max     time.Duration
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// LatencySummary is a histogram snapshot in milliseconds.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Summary computes quantiles over the recorded samples.
func (h *Histogram) Summary() LatencySummary {
	h.mu.Lock()
	samples := append([]time.Duration(nil), h.samples...)
	sum, max := h.sum, h.max
	h.mu.Unlock()
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	q := func(p float64) float64 { return ms(stats.NearestRank(samples, p)) }
	return LatencySummary{
		Count:  len(samples),
		MeanMS: ms(sum) / float64(len(samples)),
		P50MS:  q(0.50),
		P95MS:  q(0.95),
		P99MS:  q(0.99),
		MaxMS:  ms(max),
	}
}
