package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/shard"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// A run sets up at least minSetupRepeats times and goes on, up to
// maxSetupRepeats, while another set-up at the fastest pace so far fits
// in setupBudget: three times for day_gc and peak_road, ~6 for
// peak_shard2, 15 for live_http. setup_s is the fastest of them (see
// fastest): a live set-up takes 70 ms and doubled under steal, and the
// median of three moved 70 % between two sets of ten runs of one commit.
const (
	minSetupRepeats = 3
	maxSetupRepeats = 15
	setupBudget     = 6.0 // seconds
)

// anotherSetup reports whether a run that has set up len(setups) times,
// beginning at begun, sets up once more.
func anotherSetup(setups []float64, begun time.Time) bool {
	n := len(setups)
	return n < minSetupRepeats || n < maxSetupRepeats && time.Since(begun).Seconds()+fastest(setups) <= setupBudget
}

// instance is one replay workload's problem, built from the seed: the
// trace, the fleet and the runner configuration. Everything the program
// under test receives derives from it.
type instance struct {
	name   string
	city   *workload.City
	orders []trace.Order
	starts []geo.Point
	opts   core.Options // Observer, Coster, Shards and Obs are set per variant
	alg    string
	shards int // 0 = single engine
	mode   core.PredictionMode
	model  *timedPredictor // day_gc only
	graph  *roadnet.Graph  // peak_road only: each replay prices on a fresh GraphCoster
	// base holds the count history and trained predictor the variants'
	// runners share, so predictor training is paid once per instance.
	base *core.Runner

	generateS, historyS, trainS float64
}

// peakHour cuts the 7-8 am hour out of a generated day and rebases it
// to t=0, so a one-hour horizon replays the morning rush rather than the
// midnight lull.
func peakHour(day []trace.Order) []trace.Order {
	const start, length = 7 * 3600.0, 3600.0
	var out []trace.Order
	for _, o := range day {
		if o.PostTime >= start && o.PostTime < start+length {
			o.PostTime -= start
			o.Deadline -= start
			out = append(out, o)
		}
	}
	return out
}

// buildDayGC: the paper's whole pipeline on its default batch timing —
// a full day at quarter paper scale, IRG, forecasts from a trained
// predictor.
func buildDayGC(seed int64) (*instance, error) {
	t0 := time.Now()
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 70000, Seed: 31})
	opts := core.Options{City: city, NumDrivers: 750, Delta: 3, TC: 1200, Seed: seed}
	base := core.NewRunner(opts)
	inst := &instance{
		name: "day_gc", city: city, orders: base.Orders(), starts: base.Starts(), opts: opts,
		alg: "IRG", mode: core.PredictModel, model: &timedPredictor{Predictor: predict.HA{}}, base: base,
	}
	inst.generateS = time.Since(t0).Seconds()
	t1 := time.Now()
	base.History()
	inst.historyS = time.Since(t1).Seconds()
	t2 := time.Now()
	if _, err := base.TrainedPredictor(inst.model); err != nil {
		return nil, err
	}
	inst.trainS = time.Since(t2).Seconds()
	return inst, nil
}

// buildPeak builds a rebased morning-peak instance of a city with the
// given daily demand.
func buildPeak(name string, ordersPerDay, drivers int, seed int64) *instance {
	t0 := time.Now()
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: ordersPerDay, Seed: 31})
	rng := rand.New(rand.NewSource(seed))
	day := city.GenerateDay(0, rng)
	inst := &instance{
		name: name, city: city, orders: peakHour(day), starts: city.InitialDrivers(drivers, day, rng),
		opts: core.Options{City: city, NumDrivers: drivers, Delta: 3, TC: 1200, Horizon: 3600, Seed: seed},
		mode: core.PredictNone,
	}
	inst.generateS = time.Since(t0).Seconds()
	return inst
}

// buildPeakRoad: road-network pricing dominates; dispatch is ~1 %.
func buildPeakRoad(seed int64) (*instance, error) {
	inst := buildPeak("peak_road", 141000, 1000, seed)
	inst.alg = "IRG"
	inst.graph = roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 1})
	return inst, nil
}

// buildPeakShard2: the full paper city's peak on two lockstep shards,
// k-nearest candidates, the paper's second algorithm.
func buildPeakShard2(seed int64) (*instance, error) {
	inst := buildPeak("peak_shard2", 282255, 4000, seed)
	inst.alg = "LS"
	inst.shards = 2
	inst.opts.CandidateCap = 16
	return inst, nil
}

var replayBuilders = map[string]func(seed int64) (*instance, error){
	"day_gc":      buildDayGC,
	"peak_road":   buildPeakRoad,
	"peak_shard2": buildPeakShard2,
}

// variant is one way of running the instance: how many shards, whether
// the tracing wrappers are installed, whether the engine's own
// observability layer is on.
type variant struct {
	name   string
	shards int
	probe  *traceProbe // nil: measured-run shape, only the batch clock
	clock  *batchClock
	obsCfg sim.ObsConfig
	// firstRoundOnly variants run once per traced run; they price a
	// ratio nobody bounds and would otherwise halve the traced replays.
	firstRoundOnly bool

	runner *core.Runner // nil when the instance prices on a fresh coster per replay
	// Per replay: the run's wall seconds and, for clocked variants, the
	// p50 and p99 of its batch gaps in ms.
	walls, gapP50s, gapP99s []float64
	gaps                    int
}

func (inst *instance) newVariant(name string, shards int, probe *traceProbe, obsCfg sim.ObsConfig) *variant {
	v := &variant{name: name, shards: shards, probe: probe, obsCfg: obsCfg}
	if probe == nil {
		v.clock = newBatchClock(int(inst.opts.WithDefaults().Horizon/inst.opts.Delta) + 1)
	}
	if inst.graph == nil {
		v.runner = inst.newRunner(v, nil)
	}
	return v
}

func (inst *instance) newRunner(v *variant, coster roadnet.Coster) *core.Runner {
	opts := inst.opts
	opts.Shards = v.shards
	opts.Coster = coster
	opts.Obs = v.obsCfg
	if v.probe != nil {
		opts.Observer = v.probe
	} else {
		opts.Observer = v.clock
	}
	r := core.NewRunnerWithOrders(opts, inst.orders, inst.starts)
	if inst.base != nil {
		r.ShareFrom(inst.base)
	}
	return r
}

// runResult is one replay as seen from outside.
type runResult struct {
	summary    sim.Summary
	wall       float64
	coster     roadnet.CosterStats
	costsCalls int64
	shardStats []shard.Stats
}

// run replays the instance once under the variant. Only the engine's
// own run is timed: building the source, runner and dispatcher is the
// caller's per-replay overhead, not the program's.
func (inst *instance) run(v *variant, replay int64, stride int64) (runResult, error) {
	var res runResult
	runner := v.runner
	var graphCoster *roadnet.GraphCoster
	var traced *tracedCoster
	if inst.graph != nil {
		// Tree cache 512 << working set, so a fresh coster makes every
		// replay the same cold-then-warm run and its counters exact.
		graphCoster = roadnet.NewGraphCoster(inst.graph)
		var coster roadnet.Coster = graphCoster
		if v.probe != nil {
			traced = &tracedCoster{GraphCoster: graphCoster, p: v.probe}
			coster = traced
		}
		runner = inst.newRunner(v, coster)
	}
	var src sim.OrderSource = sim.NewSliceSource(inst.orders)
	factory := core.ShardDispatchers(inst.alg, inst.opts.Seed, max(v.shards, 1))
	if v.probe != nil {
		v.probe.begin(replay, stride)
		src = tracedSource{SizedSource: src.(sim.SizedSource), p: v.probe}
		plain := factory
		factory = func(i int) (sim.Dispatcher, error) {
			d, err := plain(i)
			if err != nil {
				return nil, err
			}
			return v.probe.wrapDispatcher(d)
		}
	} else {
		v.clock.reset()
	}
	var model predict.Predictor
	if inst.model != nil {
		model = inst.model
	}

	ctx := context.Background()
	var m *sim.Metrics
	var err error
	var t0 time.Time
	if v.shards == 0 {
		d, derr := factory(0)
		if derr != nil {
			return res, derr
		}
		t0 = time.Now()
		m, err = runner.RunSource(ctx, d, inst.mode, model, src, nil)
	} else {
		rt, rerr := runner.ShardSession(src, nil, inst.mode, model)
		if rerr != nil {
			return res, rerr
		}
		t0 = time.Now()
		m, err = rt.Run(ctx, factory)
		res.shardStats = rt.Stats()
	}
	res.wall = time.Since(t0).Seconds()
	if v.probe != nil {
		v.probe.closeBatch(v.probe.tr.now())
	}
	if err != nil {
		return res, err
	}
	res.summary = m.Summary()
	if graphCoster != nil {
		res.coster = graphCoster.Stats()
	}
	if traced != nil {
		res.costsCalls = traced.calls
	}
	v.walls = append(v.walls, res.wall)
	if v.clock != nil {
		g := v.clock.gapsMS(func(int32) bool { return true })
		v.gapP50s, v.gapP99s, v.gaps = append(v.gapP50s, quantile(g, 0.50)), append(v.gapP99s, quantile(g, 0.99)), v.gaps+len(g)
	}
	return res, nil
}

// checkSummary applies the conservation laws every replay must satisfy.
func checkSummary(s sim.Summary) error {
	if s.Served+s.Reneged+s.Canceled > s.TotalOrders {
		return fmt.Errorf("%d served + %d reneged + %d canceled exceed %d orders", s.Served, s.Reneged, s.Canceled, s.TotalOrders)
	}
	if s.IdleClosed != s.Served {
		return fmt.Errorf("%d closed idle entries for %d served orders", s.IdleClosed, s.Served)
	}
	if s.Served == 0 {
		return fmt.Errorf("no order was served")
	}
	return nil
}

// runReplayWorkload runs one replay workload in this process: set-up
// (repeated, see anotherSetup: build the instance, replay it once), then the
// measured phase — or, traced, the interleaved traced phase.
func runReplayWorkload(name string, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	rep := newReport(name, seed, seconds, traced)
	build := replayBuilders[name]

	// Set-up is paid several times, each from nothing: build the
	// instance, then its first replay. That replay lets lazy set-up finish
	// (heap growth, the forecast memo, page-ins), so work moved out of the
	// measured replays into a cache shows here. The last replay's Summary
	// is the reference every later replay of this seed must reproduce.
	var inst *instance
	var plain *variant
	var warm runResult
	var setups []float64
	for begun := time.Now(); anotherSetup(setups, begun); {
		t0 := time.Now()
		built, err := build(seed)
		if err != nil {
			return nil, err
		}
		inst = built
		plain = inst.newVariant("plain", inst.shards, nil, sim.ObsConfig{})
		rep.Attempted++
		if warm, err = inst.run(plain, 0, 0); err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := checkSummary(warm.summary); err != nil {
			rep.Failed++
			rep.failf("warm-up replay: %v", err)
		}
	}
	plain.walls, plain.gapP50s, plain.gapP99s, plain.gaps = nil, nil, nil, 0
	rep.set("setup_s", fastest(setups), len(setups))

	var err error
	if traced {
		err = inst.tracedPhase(rep, plain, warm, seconds, outDir)
	} else {
		err = inst.measuredPhase(rep, plain, warm, seconds)
	}
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peakRSSMB(), 0)
	return rep, nil
}

// checkReplay compares one replay against the warm-up reference.
func (inst *instance) checkReplay(rep *report, what string, got runResult, want runResult) {
	rep.Attempted++
	ok := true
	if got.summary != want.summary {
		ok = false
		rep.failf("%s: summary %+v differs from the reference %+v", what, got.summary, want.summary)
	}
	if err := checkSummary(got.summary); err != nil {
		ok = false
		rep.failf("%s: %v", what, err)
	}
	if inst.graph != nil && got.coster.SettledNodes != want.coster.SettledNodes {
		ok = false
		rep.failf("%s: %d settled nodes, reference %d", what, got.coster.SettledNodes, want.coster.SettledNodes)
	}
	if !ok {
		rep.Failed++
	}
}

// measuredPhase repeats whole replays for the given seconds — it stops
// before a replay that, at the median pace so far, would overrun — and
// reports each timing as that of its fastest replay (see fastest).
func (inst *instance) measuredPhase(rep *report, plain *variant, warm runResult, seconds float64) error {
	var cpuPerKOrder []float64
	orders := 0.0
	meter := beginPhase()
	for len(plain.walls) == 0 || time.Since(meter.start).Seconds()+median(plain.walls) <= seconds {
		cpu0 := cpuSeconds()
		res, err := inst.run(plain, 0, 0)
		if err != nil {
			return fmt.Errorf("replay %d: %w", len(plain.walls), err)
		}
		cpu := cpuSeconds() - cpu0
		inst.checkReplay(rep, fmt.Sprintf("replay %d", len(plain.walls)), res, warm)
		orders += float64(res.summary.TotalOrders)
		terminal := float64(res.summary.Served + res.summary.Reneged + res.summary.Canceled)
		cpuPerKOrder = append(cpuPerKOrder, cpu/(terminal/1000))
	}
	d := meter.end()

	s := warm.summary
	rep.set("orders_per_s", float64(s.TotalOrders)/fastest(plain.walls), len(plain.walls))
	rep.set("batch_p50_ms", fastest(plain.gapP50s), plain.gaps)
	rep.set("batch_p99_ms", fastest(plain.gapP99s), plain.gaps)
	rep.set("cpu_s_per_korder", fastest(cpuPerKOrder), len(cpuPerKOrder))
	rep.set("allocs_per_order", d.mallocs/orders, 0)
	rep.set("alloc_kb_per_order", d.bytes/1024/orders, 0)
	rep.set("served_share", float64(s.Served)/float64(s.TotalOrders), 0)
	rep.set("revenue_per_order", s.Revenue/float64(s.TotalOrders), 0)
	rep.set("sim.expired_share", float64(s.Reneged)/float64(s.TotalOrders), 0)
	rep.set("go.gc_cycles", d.gcCycles, 0)
	rep.set("go.gc_pause_total_ms", d.gcPauseMS, 0)
	rep.set("machine.steal_share", d.stealShare, 0)
	return nil
}

// tracedPhase interleaves plain and traced replays (and the workload's
// ratio variants) for the given seconds, then runs the kernel probes
// and derives the per-layer metrics from the spans.
func (inst *instance) tracedPhase(rep *report, plain *variant, warm runResult, seconds float64, outDir string) error {
	batches := int64(warm.summary.Batches)
	stride := batches + 1
	tr := newTracer(int(stride) * 8 * 4)
	probe := newTraceProbe(tr, len(inst.starts), inst.shards > 0, inst.graph != nil)
	tracedV := inst.newVariant("traced", inst.shards, probe, sim.ObsConfig{})
	variants := []*variant{plain, tracedV}

	var oneShard, bare, obsMetrics, obsSpans *variant
	switch {
	case inst.shards > 0: // what sharding costs and buys: the same instance on 1 shard and on the bare engine
		oneShard = inst.newVariant("one_shard", 1, nil, sim.ObsConfig{})
		bare = inst.newVariant("bare", 0, nil, sim.ObsConfig{})
		variants = append(variants, oneShard, bare)
	case inst.model != nil: // the full pipeline is where ROADMAP budgets the engine's own observability
		reg := obs.NewRegistry()
		obsMetrics = inst.newVariant("obs_metrics", 0, nil, sim.ObsConfig{Registry: reg})
		obsSpans = inst.newVariant("obs_spans", 0, nil, sim.ObsConfig{Registry: reg, Tracer: obs.NewTracer(io.Discard)})
		obsMetrics.firstRoundOnly, obsSpans.firstRoundOnly = true, true
		variants = append(variants, obsMetrics, obsSpans)
	}
	if inst.model != nil {
		inst.model.timed = true
		inst.model.calls, inst.model.ns = 0, 0
	}

	// Rounds of all variants, interleaved so drift hits them alike; a
	// round is started only while it fits the budget.
	type tracedReplay struct {
		res              runResult
		critical, tail   float64
		riders, drivers  []float64
		pairs            []float64
		assigned, paired float64
	}
	var tracedRuns []tracedReplay
	var oneShardRes, bareRes runResult
	meter := beginPhase()
	for round := 0; ; round++ {
		cost := 0.0
		for _, v := range variants {
			if round == 0 || !v.firstRoundOnly {
				cost += warm.wall
			}
		}
		if round > 0 && time.Since(meter.start).Seconds()+cost > seconds {
			break
		}
		for _, v := range variants {
			if round > 0 && v.firstRoundOnly {
				continue
			}
			res, err := inst.run(v, int64(len(tracedRuns)), stride)
			if err != nil {
				return fmt.Errorf("%s replay: %w", v.name, err)
			}
			switch v {
			case oneShard:
				rep.Attempted++
				oneShardRes = res
			case bare:
				rep.Attempted++
				bareRes = res
			default:
				inst.checkReplay(rep, v.name+" replay", res, warm)
			}
			if v == tracedV {
				t := tracedReplay{res: res, critical: float64(probe.criticalNS) / 1e9, tail: float64(probe.tailNS) / 1e9}
				t.riders = append(t.riders, probe.riders...)
				t.drivers = append(t.drivers, probe.drivers...)
				for b := range probe.riders {
					pairs := 0.0
					for _, l := range probe.lanes {
						if b < len(l.pairs) {
							pairs += l.pairs[b]
						}
					}
					t.pairs = append(t.pairs, pairs)
				}
				for _, l := range probe.lanes {
					t.assigned += float64(l.assignments)
					t.paired += float64(l.pairTotal)
				}
				tracedRuns = append(tracedRuns, t)
			}
		}
	}
	d := meter.end()
	for _, v := range probe.violations {
		rep.failf("traced replay: %s", v)
	}
	if oneShard != nil && oneShardRes.summary != bareRes.summary {
		rep.Failed++
		rep.failf("1-shard runtime summary %+v differs from the bare engine's %+v", oneShardRes.summary, bareRes.summary)
	}

	// Per-layer times: per traced replay from its spans, then the
	// median over traced replays.
	self := selfTimes(tr.spans)
	n := len(tracedRuns)
	byKind := make([][]float64, len(spanNames))     // [kind][replay] summed duration, s
	selfByKind := make([][]float64, len(spanNames)) // [kind][replay] summed self time, s
	for k := range byKind {
		byKind[k], selfByKind[k] = make([]float64, n), make([]float64, n)
	}
	var assignMS []float64
	for i, s := range tr.spans {
		r := s.trace / stride
		byKind[s.kind][r] += float64(s.end-s.start) / 1e9
		selfByKind[s.kind][r] += float64(self[i]) / 1e9
		if s.kind == spanAssign {
			assignMS = append(assignMS, float64(s.end-s.start)/1e6)
		}
	}
	lanes := float64(max(inst.shards, 1)) // per-shard spans run in parallel: report the mean shard
	perReplay := func(f func(r int) float64) float64 {
		vals := make([]float64, n)
		for r := range vals {
			vals[r] = f(r)
		}
		return median(vals)
	}
	tracedWall := fastest(tracedV.walls)
	plainWall := fastest(plain.walls)

	rep.set("workload.generate_s", inst.generateS, 0)
	rep.set("workload.orders", float64(len(inst.orders)), 0)
	rep.set("predict.history_s", inst.historyS, 0)
	rep.set("predict.train_s", inst.trainS, 0)
	if inst.model != nil {
		replays := float64(len(plain.walls) + len(tracedV.walls) + len(obsMetrics.walls) + len(obsSpans.walls))
		rep.set("predict.forecast_s", float64(inst.model.ns)/1e9/replays, 0)
		rep.set("predict.forecast_calls", float64(inst.model.calls)/replays, 0)
	}
	rep.set("sim.admit_build_self_s", perReplay(func(r int) float64 {
		return selfByKind[spanAdmitBuild][r] + byKind[spanAdmit][r] + byKind[spanBuildEstimate][r]/lanes
	}), n)
	rep.set("sim.estimate_s", perReplay(func(r int) float64 { return byKind[spanEstimate][r] }), n)
	rep.set("sim.apply_s", perReplay(func(r int) float64 {
		if inst.shards > 0 {
			return tracedRuns[r].tail // apply of the round's last shard; the others also wait at the barrier
		}
		return byKind[spanApply][r]
	}), n)
	rep.set("sim.batches", float64(batches), 0)
	var riders, drivers, pairs []float64
	assigned, paired := 0.0, 0.0
	for _, t := range tracedRuns {
		riders, drivers, pairs = append(riders, t.riders...), append(drivers, t.drivers...), append(pairs, t.pairs...)
		assigned, paired = assigned+t.assigned, paired+t.paired
	}
	rep.set("sim.riders_per_batch_p50", median(riders), len(riders))
	rep.set("sim.drivers_per_batch_p50", median(drivers), len(drivers))
	rep.set("sim.pairs_per_batch_p50", median(pairs), len(pairs))
	empty := plain.clock.gapsMS(func(w int32) bool { return w == 0 })
	rep.set("sim.empty_batch_p50_ms", median(empty), len(empty))
	rep.set("sim.expired_share", float64(warm.summary.Reneged)/float64(warm.summary.TotalOrders), 0)

	withinUS, nearestUS := probeGeo(inst.city.Grid(), inst.starts, inst.orders, inst.opts.Seed)
	rep.set("geo.within_us_per_call", withinUS, 0)
	rep.set("geo.nearest16_us_per_call", nearestUS, 0)

	costsS := func(r int) float64 { return byKind[spanMatrix][r] + byKind[spanWave][r] }
	rep.set("roadnet.matrix_costs_s", perReplay(func(r int) float64 { return byKind[spanMatrix][r] }), n)
	rep.set("roadnet.wave_costs_s", perReplay(func(r int) float64 { return byKind[spanWave][r] }), n)
	rep.set("roadnet.share", perReplay(func(r int) float64 { return costsS(r) / tracedRuns[r].res.wall }), n)
	if inst.graph != nil {
		cs, orders := tracedRuns[0].res.coster, float64(warm.summary.TotalOrders)
		rep.set("roadnet.costs_calls", float64(tracedRuns[0].res.costsCalls), 0)
		rep.set("roadnet.settled_per_order", float64(cs.SettledNodes)/orders, 0)
		rep.set("roadnet.partial_trees_per_korder", float64(cs.PartialTrees)/(orders/1000), 0)
		rep.set("roadnet.cache_hit_ratio", ratio(float64(cs.CacheHits), float64(cs.CacheHits+cs.Trees+cs.PartialTrees)), 0)
		rep.set("roadnet.evictions_per_korder", float64(cs.Evictions)/(orders/1000), 0)
	}
	sssp := inst.graph
	if sssp == nil {
		sssp = roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 1})
	}
	rep.set("roadnet.sssp_us_per_tree", probeSSSP(sssp, inst.opts.Seed), 0)

	rep.set("dispatch.assign_s", perReplay(func(r int) float64 { return byKind[spanAssign][r] / lanes }), n)
	rep.set("dispatch.assign_p99_ms", quantile(assignMS, 0.99), len(assignMS))
	rep.set("dispatch.share", perReplay(func(r int) float64 { return byKind[spanAssign][r] / lanes / tracedRuns[r].res.wall }), n)
	rep.set("dispatch.assignments_per_pair", ratio(assigned, paired), 0)
	rep.set("queueing.eit_ns_per_call", probeEIT(), 0)

	if inst.shards > 0 {
		stats := tracedRuns[n-1].res.shardStats
		rehomed, borrowed, maxMS, sumMS := 0, 0, 0.0, 0.0
		for _, s := range stats {
			rehomed += s.RehomedIn
			borrowed += s.BorrowedIn
			maxMS = max(maxMS, s.AvgBatchMS)
			sumMS += s.AvgBatchMS
		}
		rep.set("shard.rounds", float64(batches), 0)
		rep.set("shard.rehomed", float64(rehomed), 0)
		rep.set("shard.borrowed", float64(borrowed), 0)
		rep.set("shard.imbalance", ratio(maxMS, sumMS/float64(len(stats))), 0)
		rep.set("shard.critical_path_s", perReplay(func(r int) float64 { return tracedRuns[r].critical }), n)
		rep.set("shard.speedup_vs_1", fastest(oneShard.walls)/plainWall, len(oneShard.walls))
		rep.set("shard.one_shard_ratio", fastest(oneShard.walls)/fastest(bare.walls), len(bare.walls))
	}
	if obsMetrics != nil {
		rep.set("obs.metrics_ratio", fastest(obsMetrics.walls)/plainWall, len(obsMetrics.walls))
		rep.set("obs.spans_ratio", fastest(obsSpans.walls)/plainWall, len(obsSpans.walls))
	}

	rep.set("batch_p99_ms", fastest(plain.gapP99s), plain.gaps)
	rep.set("go.gc_cycles", d.gcCycles, 0)
	rep.set("go.gc_pause_total_ms", d.gcPauseMS, 0)
	rep.set("machine.steal_share", d.stealShare, 0)
	rep.set("trace.overhead_ratio", tracedWall/plainWall, len(tracedV.walls))
	// The batch roots tile the run from its first Poll to its end, so
	// their share of the replay wall is what the trace accounts for
	// (under one root, self times add up to the root's duration; lanes
	// of a sharded round overlap, so they are not summed here).
	rep.set("trace.coverage_ratio", perReplay(func(r int) float64 { return byKind[spanBatch][r] / tracedRuns[r].res.wall }), n)
	return writeSpans(filepath.Join(outDir, "trace_"+inst.name+".jsonl"), tr.spans)
}
