package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// extraBounds bound the end-to-end metrics BENCHMARK.json can only list
// without a bound (see unboundedEndToEnd). A workload that does not
// report one is skipped.
var extraBounds = []boundedMetric{
	{"batch_p99_ms", "ms", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"submit_p50_ms", "ms", "lower", 0.10},
	{"submit_p95_ms", "ms", "lower", 0.10},
	{"read_p50_ms", "ms", "lower", 0.10},
}

// replayBounds tighten the contract's bounds on the replay workloads.
// -compare judges two results of the same seed, and for a given seed a
// replay's decisions and allocations repeat exactly: these pin "same
// decisions" without a golden file. (The contract's own bounds must also
// hold across seeds and on live_http, so they are wider.)
var replayBounds = map[string]float64{
	"allocs_per_order":   0.02,
	"alloc_kb_per_order": 0.02,
	"served_share":       0.001,
	"revenue_per_order":  0.001,
}

const (
	// setupFloorS: set-up times closer than this are the same; below
	// it a relative bound only measures page-cache luck.
	setupFloorS = 0.1
	// failedShareBound is absolute: the failed share may rise by this.
	failedShareBound = 0.005
)

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the benchmark's driver judges spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median, 0 for a
// single run.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// verdict judges B against A for one metric on one workload:
// "unresolved" when the run-to-run spread is wider than the bound and
// the two sets of runs overlap; "worse" when the median moved the wrong
// way by more than the bound; "better" when it moved the right way by
// more than the bound, or every B run beats every A run by more than
// the spread (and a tenth of the bound, so rounding noise in an exact
// metric is not a gain); else "same". worsening is the median's relative
// move in the bad direction.
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, worsening float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worsening = ratio(mb-ma, math.Abs(ma))
	if !lowerBetter {
		worsening = -worsening
	}
	beats := func(x, y float64) bool { return (x < y) == lowerBetter && x != y }
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
			allWorse = allWorse && beats(y, x)
		}
	}
	repeated := len(a) > 1 && len(b) > 1
	widest := max(spread(a), spread(b))
	switch {
	case widest > bound && !allBetter && !allWorse:
		return "unresolved", worsening
	case worsening > bound:
		return "worse", worsening
	case -worsening > bound, allBetter && repeated && -worsening > max(widest, bound/10):
		return "better", worsening
	default:
		return "same", worsening
	}
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &resultFile{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// metricValues collects one metric over a workload's measured runs.
func metricValues(wr *workloadResult, name string) []float64 {
	var out []float64
	if wr == nil {
		return nil
	}
	for _, r := range wr.Runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Extra[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (anyWorse bool, err error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median\tB median\tB/A (base A)\tspread A\tspread B\tbound\tverdict\n")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range append(append([]boundedMetric(nil), spec.EndToEnd...), extraBounds...) {
			if tight, ok := replayBounds[m.Name]; ok && name != "live_http" {
				m.Bound = min(m.Bound, tight)
			}
			va, vb := metricValues(wa, m.Name), metricValues(wb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, _ := verdict(va, vb, m.Better == "lower", m.Bound)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			if m.Name == "setup_s" && math.Abs(mb-ma) < setupFloorS {
				v = "same"
			}
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.4f\t%g\t%s\n",
				name, m.Name, m.Unit, ma, mb, ratio(mb, ma), spread(va), spread(vb), m.Bound, v)
		}
		fa, fb := failedShare(wa), failedShare(wb)
		v := "same"
		if fb-fa > failedShareBound {
			v, anyWorse = "worse", true
		} else if fa-fb > failedShareBound {
			v = "better"
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tshare\t%.6g\t%.6g\t-\t-\t-\t+%g abs\t%s\n", name, fa, fb, failedShareBound, v)
	}
	return anyWorse, tw.Flush()
}

// failedShare is failed/attempted over a workload's measured runs.
func failedShare(wr *workloadResult) float64 {
	failed, attempted := 0, 0
	if wr != nil {
		for _, r := range wr.Runs {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}
