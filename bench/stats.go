package main

import "mrvd/internal/stats"

// quantile is the nearest-rank p-quantile (the ceil(p*n)-th smallest
// sample, 0 when empty) — the convention internal/load and
// internal/stats already share, reused here so the benchmark's
// percentiles read the same as the repo's own reports.
func quantile(xs []float64, p float64) float64 {
	var e stats.Estimator
	e.AddAll(xs)
	return e.Quantile(p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest is how a timing repeated within one run (per replay, or per
// window of a live phase) becomes the run's value: its minimum, 0 when
// empty. The hosts this runs on are shared — machine.steal_share reaches
// 0.45, and the CPU's speed drifts by a tenth over minutes — and such
// interference only ever adds time, so the fastest repeat is the closest
// view of the program. Over six peak_shard2 runs the minimum replay wall
// spanned 9 %, the lower quartile 12 %, the median 18 %.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// ratio returns a/b, or 0 when b is 0, so a layer that did no work
// reports 0 instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
