package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef names one metric and its unit. Direction and bound live in
// BENCHMARK.json, which -compare reads; TestSpecMatchesTables keeps the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd is what every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"orders_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"cpu_s_per_korder", "s"},
	{"allocs_per_order", "count"},
	{"alloc_kb_per_order", "KB"},
	{"served_share", "share"},
	{"revenue_per_order", "s"},
}

// unboundedEndToEnd are end-to-end metrics too, but BENCHMARK.json
// cannot carry them as such: its end-to-end list needs one bound per
// metric that holds on every workload and on every seed. The three
// latencies exist on live_http only; a p99 of batch gaps and a peak RSS
// are single tail observations per run, and on a host that steals up to
// 45 % of the CPU their spread over ten seeds exceeds any bound the
// contract allows. So the contract lists them under per_layer; measured
// runs still report them, and -compare bounds them (extraBounds).
var unboundedEndToEnd = []metricDef{
	{"batch_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"submit_p50_ms", "ms"},
	{"submit_p95_ms", "ms"},
	{"read_p50_ms", "ms"},
}

// perLayer is what every workload reports with -trace 1; a layer that
// is idle on a workload reports 0.
var perLayer = append([]metricDef{
	{"workload.generate_s", "s"},
	{"workload.orders", "count"},
	{"predict.history_s", "s"},
	{"predict.train_s", "s"},
	{"predict.forecast_s", "s"},
	{"predict.forecast_calls", "count"},
	{"sim.admit_build_self_s", "s"},
	{"sim.estimate_s", "s"},
	{"sim.apply_s", "s"},
	{"sim.batches", "count"},
	{"sim.riders_per_batch_p50", "count"},
	{"sim.drivers_per_batch_p50", "count"},
	{"sim.pairs_per_batch_p50", "count"},
	{"sim.empty_batch_p50_ms", "ms"},
	{"sim.empty_batch_alloc_kb", "KB"},
	{"sim.empty_batch_allocs", "count"},
	{"sim.expired_share", "share"},
	{"geo.within_us_per_call", "us"},
	{"geo.nearest16_us_per_call", "us"},
	{"roadnet.matrix_costs_s", "s"},
	{"roadnet.wave_costs_s", "s"},
	{"roadnet.costs_calls", "count"},
	{"roadnet.share", "share"},
	{"roadnet.settled_per_order", "count"},
	{"roadnet.partial_trees_per_korder", "count"},
	{"roadnet.cache_hit_ratio", "share"},
	{"roadnet.evictions_per_korder", "count"},
	{"roadnet.sssp_us_per_tree", "us"},
	{"dispatch.assign_s", "s"},
	{"dispatch.assign_p99_ms", "ms"},
	{"dispatch.share", "share"},
	{"dispatch.assignments_per_pair", "share"},
	{"queueing.eit_ns_per_call", "ns"},
	{"shard.rounds", "count"},
	{"shard.rehomed", "count"},
	{"shard.borrowed", "count"},
	{"shard.imbalance", "ratio"},
	{"shard.critical_path_s", "s"},
	{"shard.speedup_vs_1", "ratio"},
	{"shard.one_shard_ratio", "ratio"},
	{"service.submit_p50_ms", "ms"},
	{"service.submit_p99_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.engine_p50_ms", "ms"},
	{"service.deliver_p50_ms", "ms"},
	{"server.handle_p50_ms", "ms"},
	{"server.http_overhead_p50_ms", "ms"},
	{"server.read_p99_ms", "ms"},
	{"server.submit_p99_ms", "ms"},
	{"server.submit_p999_ms", "ms"},
	{"server.rejected_429", "count"},
	{"server.heap_growth_kb_per_order", "KB"},
	{"server.max_ok_rate_per_s", "1/s"},
	{"server.closed_loop_orders_per_s", "1/s"},
	{"server.submit_p95_ms.r150", "ms"},
	{"server.submit_p95_ms.r300", "ms"},
	{"server.submit_p95_ms.r600", "ms"},
	{"server.submit_p95_ms.r1200", "ms"},
	{"obs.metrics_ratio", "ratio"},
	{"obs.spans_ratio", "ratio"},
	{"gen.offered_per_s", "1/s"},
	{"gen.lateness_p99_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_total_ms", "ms"},
	{"machine.steal_share", "share"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}, unboundedEndToEnd...)

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// metric is one reported number; N is the sample count behind it where
// it is a percentile or a median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report is one run of one workload.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics are the contract's metrics for this mode: endToEnd for a
	// measured run, perLayer for a traced one. Extra holds what the run
	// measured beyond them.
	Metrics  map[string]metric `json:"metrics"`
	Extra    map[string]metric `json:"extra,omitempty"`
	Failures []string          `json:"failures,omitempty"`
	Env      environment       `json:"env"`

	values map[string]metric
	names  []string // in the order set
}

func newReport(workload string, seed int64, seconds float64, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, values: make(map[string]metric)}
}

// set records a metric by its table name; n is the sample count, 0 when
// the value is not a sample statistic.
func (r *report) set(name string, value float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in the tables of report.go")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.failf("metric %s is %v", name, value)
		value = 0
	}
	if _, seen := r.values[name]; !seen {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{Value: value, Unit: unit, N: n}
}

// failf records a failed correctness check.
func (r *report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// finish sorts the recorded values into the contract's metrics and the
// extras, and settles the verdict.
func (r *report) finish() {
	contract := endToEnd
	if r.Traced {
		contract = perLayer
	}
	r.Metrics = make(map[string]metric, len(contract))
	for _, d := range contract {
		m, ok := r.values[d.name]
		switch {
		case ok:
		case r.Traced:
			m = metric{Unit: d.unit} // a layer this workload leaves idle
		default:
			r.failf("end-to-end metric %s was not measured", d.name)
			m = metric{Unit: d.unit}
		}
		r.Metrics[d.name] = m
	}
	r.Extra = make(map[string]metric)
	for _, name := range r.names {
		if _, ok := r.Metrics[name]; !ok {
			r.Extra[name] = r.values[name]
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if len(r.Failures) > 0 && r.Failed == 0 {
		r.Failed = 1 // a failed run-level check fails the run
	}
	r.Correct = r.Failed == 0
}

// print writes every metric as "name value unit [n=..]", the failures,
// and — last, as the driver expects — the one-line JSON result.
func (r *report) print(w io.Writer) {
	contract := endToEnd
	if r.Traced {
		contract = perLayer
	}
	line := func(name string, m metric) {
		if m.N > 0 {
			fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, d := range contract {
		line(d.name, r.Metrics[d.name])
	}
	for _, name := range r.names {
		if m, ok := r.Extra[name]; ok {
			line(name, m)
		}
	}
	if r.Attempted > 0 {
		fmt.Fprintf(w, "%-34s %14.6g share  failed=%d attempted=%d\n", "failed_share",
			float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]wire, len(r.Metrics))}
	for name, m := range r.Metrics {
		last.Metrics[name] = wire{m.Value, m.Unit}
	}
	data, err := json.Marshal(last)
	if err != nil {
		panic(err) // only unencodable floats could fail, and set rejects them
	}
	fmt.Fprintf(w, "%s\n", data)
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
