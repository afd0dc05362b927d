package mrvd

import (
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/pool"
	"mrvd/internal/predict"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// peakHourHorizon is the span of the peakHourFixture trace in seconds.
const peakHourHorizon = 3600.0

// peakHourFixture builds the instance TestPeakHourOverheads and
// TestPinnedOutputs replay: the 7–8 am hour of the seed-31 28K-order day
// (day and starts drawn from rng seed 9) rebased to t=0, and 200 driver
// starts.
func peakHourFixture() (*workload.City, []trace.Order, []geo.Point) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	day := city.GenerateDay(0, rng)
	const peakStart = 25200.0
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+peakHourHorizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}
	return city, orders, city.InitialDrivers(200, day, rng)
}

// TestPeakHourOverheads pins what the optional layers — disruption
// scenario, pooling, metrics registry, span tracer, windowed collector —
// may change and may cost, on one instance: the 7–8 am hour of the
// seed-31 28K-order day rebased to t=0, 200 drivers, 20 s batches,
// 16-nearest candidates. Per variant it checks (i) Summary byte-parity
// with the plain run of the same dispatcher where the layer must be
// invisible, (ii) that an enabled layer was active and left the end
// state it promises, and (iii) its cost as the objects it adds to the
// plain run of the same dispatcher. The engine replay is single-threaded
// and seeded, so testing.AllocsPerRun repeats to the object on any
// machine (plain IRG hour 1,128 objects, plain POOL hour 2,402; -race
// adds about 20 to a plain hour and moves a layer's count by at most
// two): the gate trusts no clock and needs no baseline file. The unit
// is objects added, not a ratio over the plain run: the batch arena cut
// the plain hour from 29,715 / 25,147 objects to 5,530 / 4,569, and the
// typed heaps, reused dispatcher buffers and rider slabs to today's,
// without touching what most layers allocate, so a fixed +88-object
// registry or +1,214-object tracer would breach a 1.01 / 1.05 ratio
// while costing exactly what it did. Bounds are the counts measured
// with typed heaps (scenario +39, pooling +4,752 / +4,744, registry
// +88, tracer +1,214) plus headroom. Wall-clock cost is bench/'s
// business (obs.metrics_ratio, obs.spans_ratio).
func TestPeakHourOverheads(t *testing.T) {
	city, orders, starts := peakHourFixture()
	const horizon = peakHourHorizon

	// A layer switches itself on in the replay's config and returns its
	// end-state check. It runs inside the measured call (a registry's
	// construction is part of its cost) and takes the config by value: a
	// pointer would move it to the heap and into every count.
	type check func(t *testing.T, got sim.Summary)
	type layer func(sim.Config) (sim.Config, check)

	// replay runs the hour under the layer. With gated set it returns the
	// objects one replay allocates; every repeat must reproduce the same
	// Summary.
	replay := func(t *testing.T, pooled, gated bool, setup layer) (sim.Summary, float64) {
		var got sim.Summary
		var after check
		ran := false
		once := func() {
			cfg := sim.Config{
				Grid: city.Grid(), Delta: 20, TC: 1200, Horizon: horizon,
				CandidateCap: 16,
			}
			if setup != nil {
				cfg, after = setup(cfg)
			}
			var d sim.Dispatcher = dispatch.POOL{}
			if !pooled {
				d = &dispatch.IRG{}
			}
			m, err := sim.New(cfg, orders, starts).Run(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if s := m.Summary(); ran && s != got {
				t.Fatalf("run diverged across repeats:\n  got:   %+v\n  first: %+v", s, got)
			} else {
				got, ran = s, true
			}
		}
		var allocs float64
		if gated {
			allocs = testing.AllocsPerRun(1, once) // one warm-up + one counted replay
		} else {
			once()
		}
		if after != nil {
			after(t, got)
		}
		return got, allocs
	}

	// The plain hours are gated too: they are what the batch arena, the
	// typed heaps and the dispatchers' reused buffers bought — the
	// Context header per batch, a rider slab per 256 orders and the
	// ledgers' amortized growth.
	plain, plainAllocs := map[bool]sim.Summary{}, map[bool]float64{}
	maxPlain := map[bool]float64{false: 1500, true: 2800}
	for _, pooled := range []bool{false, true} {
		plain[pooled], plainAllocs[pooled] = replay(t, pooled, true, nil)
		if plainAllocs[pooled] > maxPlain[pooled] {
			t.Errorf("plain hour (POOL dispatcher: %v) allocates %.0f objects, bound %.0f", pooled, plainAllocs[pooled], maxPlain[pooled])
		}
	}
	irg, solo := plain[false], plain[true]
	terminal := int64(irg.Served + irg.Reneged + irg.Canceled)

	// Orders posted after the final batch are never admitted, so the
	// counter can trail the input size but must cover every order that
	// reached a terminal state.
	admittedWithin := func(t *testing.T, reg *obs.Registry) {
		n := reg.Counter("mrvd_orders_admitted_total", "").Value()
		if n < terminal || n > int64(irg.TotalOrders) {
			t.Errorf("admitted counter = %d, want within [%d, %d]", n, terminal, irg.TotalOrders)
		}
	}
	pooling := func(capacity int) layer {
		return func(cfg sim.Config) (sim.Config, check) {
			cfg.Pooling = pool.Config{Capacity: capacity, MaxDetourSeconds: 300}
			if capacity == 1 {
				return cfg, nil
			}
			return cfg, func(t *testing.T, got sim.Summary) {
				if got.SharedServed == 0 {
					t.Errorf("pooling inactive under load: %+v", got)
				}
				if got.Served <= solo.Served {
					t.Errorf("pooled peak served %d <= solo %d", got.Served, solo.Served)
				}
			}
		}
	}

	variants := []struct {
		name     string
		pooled   bool    // POOL dispatcher; IRG otherwise
		parity   bool    // Summary must equal the plain run's
		maxAdded float64 // bound on objects allocated beyond the plain run's; 0 = not gated
		setup    layer
	}{
		{name: "scenario/zero-knobs-seeded", parity: true,
			setup: func(cfg sim.Config) (sim.Config, check) {
				cfg.Scenario = sim.ScenarioConfig{Seed: 42}
				return cfg, nil
			}},
		{name: "scenario/on", maxAdded: 250,
			setup: func(cfg sim.Config) (sim.Config, check) {
				cfg.Scenario = sim.ScenarioConfig{
					CancelRate: 0.1, DeclineProb: 0.05, TravelNoise: 0.2, Seed: 42,
				}
				return cfg, func(t *testing.T, got sim.Summary) {
					if got.Canceled == 0 || got.Declines == 0 || got.TravelSamples == 0 {
						t.Errorf("scenario inactive under load: %+v", got)
					}
				}
			}},
		{name: "pooling/capacity1", pooled: true, parity: true, setup: pooling(1)},
		{name: "pooling/capacity2", pooled: true, maxAdded: 5200, setup: pooling(2)},
		{name: "pooling/capacity4", pooled: true, maxAdded: 5200, setup: pooling(4)},
		{name: "obs/registry", parity: true, maxAdded: 100,
			setup: func(cfg sim.Config) (sim.Config, check) {
				reg := obs.NewRegistry()
				cfg.Obs = sim.ObsConfig{Registry: reg}
				return cfg, func(t *testing.T, _ sim.Summary) { admittedWithin(t, reg) }
			}},
		{name: "obs/registry+tracer", parity: true, maxAdded: 1300,
			setup: func(cfg sim.Config) (sim.Config, check) {
				reg, tr := obs.NewRegistry(), obs.NewTracer(io.Discard)
				cfg.Obs = sim.ObsConfig{Registry: reg, Tracer: tr}
				return cfg, func(t *testing.T, _ sim.Summary) {
					admittedWithin(t, reg)
					if tr.Count() != terminal {
						t.Errorf("tracer wrote %d spans, want %d", tr.Count(), terminal)
					}
				}
			}},
		// ~1000 snapshots per second racing the dispatch loop: concurrent
		// collection must not perturb outcomes. Its ticker goroutine
		// allocates alongside the replay, so the count is not exact and
		// not gated.
		{name: "obs/collector-1ms", parity: true,
			setup: func(cfg sim.Config) (sim.Config, check) {
				reg := obs.NewRegistry()
				rules := obs.DefaultDispatchRules()
				col := obs.NewCollector(obs.CollectorConfig{
					Registry: reg, Interval: time.Millisecond, Rules: rules,
				})
				col.Start()
				cfg.Obs = sim.ObsConfig{Registry: reg}
				return cfg, func(t *testing.T, _ sim.Summary) {
					col.Stop()
					// One manual tick guarantees a final window even when
					// the run finished inside the first interval.
					col.Tick(time.Now())
					dump := col.Dump()
					if dump.Windows == 0 {
						t.Error("collector recorded no windows")
					}
					found := false
					for _, s := range dump.Series {
						if s.Family == "mrvd_orders_admitted_total" && s.Stat == obs.StatRate {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("admitted-rate series missing from dump (%d series)", len(dump.Series))
					}
					if len(dump.Health.Rules) != len(rules) {
						t.Errorf("health evaluated %d rules, want %d", len(dump.Health.Rules), len(rules))
					}
				}
			}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, allocs := replay(t, v.pooled, v.maxAdded > 0, v.setup)
			if v.parity && got != plain[v.pooled] {
				t.Errorf("layer perturbed the summary:\n  got:   %+v\n  plain: %+v", got, plain[v.pooled])
			}
			if v.maxAdded > 0 {
				added := allocs - plainAllocs[v.pooled]
				t.Logf("%.0f objects - plain %.0f = %.0f added (bound %.0f)", allocs, plainAllocs[v.pooled], added, v.maxAdded)
				if added > v.maxAdded {
					t.Errorf("layer adds %.0f objects to the plain run, bound %.0f", added, v.maxAdded)
				}
			}
		})
	}
}

// TestForecastHourAllocs gates the demand forecast the way the layers
// above are gated: the objects it adds to the same hour without one.
// The dispatcher is NEAR, which never reads the forecast, so both hours
// make the same decisions and the difference is the forecast callback's
// alone. It owns its result buffers (core's predictFn), so a session
// pays for them once — 1 object for the oracle and 8 with the trained
// model's memoized slots at PR 23, where a fresh pair per batch had
// cost 361 and 367 over this hour's 180 batches.
func TestForecastHourAllocs(t *testing.T) {
	city, orders, starts := peakHourFixture()
	r := core.NewRunnerWithOrders(core.Options{
		City: city, NumDrivers: len(starts), Delta: 20, TC: 1200,
		Horizon: peakHourHorizon, CandidateCap: 16, Seed: 9,
	}, orders, starts)
	hour := func(mode core.PredictionMode, model predict.Predictor) float64 {
		return testing.AllocsPerRun(1, func() {
			d, err := core.NewDispatcher("NEAR", 9)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(context.Background(), d, mode, model); err != nil {
				t.Fatal(err)
			}
		})
	}
	none := hour(core.PredictNone, nil)
	for _, f := range []struct {
		name  string
		mode  core.PredictionMode
		model predict.Predictor
	}{{"oracle", core.PredictOracle, nil}, {"model", core.PredictModel, predict.HA{}}} {
		added := hour(f.mode, f.model) - none
		t.Logf("%s forecast adds %.0f objects to the hour's %.0f", f.name, added, none)
		if added > 20 {
			t.Errorf("%s forecast adds %.0f objects to the hour, bound 20: a per-batch buffer is back", f.name, added)
		}
	}
}
