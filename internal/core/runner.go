package core

import (
	"context"
	"fmt"
	"math/rand"

	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/pool"
	"mrvd/internal/predict"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/shard"
	"mrvd/internal/sim"
	"mrvd/internal/stats"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// PredictionMode selects where the framework's |^R_k| forecasts come
// from, mirroring the paper's -P (predicted) and -R (real demand)
// algorithm variants.
type PredictionMode int

// Prediction modes.
const (
	// PredictNone feeds zero forecasts: the queueing analysis sees only
	// the current batch.
	PredictNone PredictionMode = iota
	// PredictOracle feeds the workload's noiseless intensities — the
	// paper's "Real" column.
	PredictOracle
	// PredictModel feeds a trained predictor's forecasts computed from
	// realized counts strictly before each slot.
	PredictModel
)

// Options configures a Runner.
type Options struct {
	// City provides the workload; nil builds the default scaled NYC-like
	// city.
	City *workload.City
	// NumDrivers is the fleet size (default 100).
	NumDrivers int
	// Delta, TC, Horizon are the batch interval, scheduling window and
	// simulated span in seconds (defaults 3, 1200, 86400 — Table 2's
	// defaults).
	Delta, TC, Horizon float64
	// Coster prices travel (default Manhattan at 11 m/s).
	Coster roadnet.Coster
	// Seed drives instance randomness (trace sampling, driver starts).
	Seed int64
	// TrainDays is the history length for model-based prediction
	// (default MinLookbackDays+14). The test day is day TrainDays.
	TrainDays int
	// Repositioner optionally relocates long-idle drivers (see
	// sim.Repositioner); nil keeps the paper's stay-at-dropoff behaviour.
	Repositioner sim.Repositioner
	// RepositionAfter is the idle threshold before repositioning fires.
	RepositionAfter float64
	// Observer, when set, receives engine lifecycle events during runs
	// (see sim.Observer) — streaming metrics export without post-hoc
	// Metrics scraping.
	Observer sim.Observer
	// PaceFactor throttles the batch loop to at most PaceFactor
	// simulated seconds per wall second (1 = real time, 0 = free-run);
	// see sim.Config.PaceFactor. Live RunSource serving with wall-clock
	// producers needs this.
	PaceFactor float64
	// CandidateCap, when positive, prices only the CandidateCap nearest
	// drivers per rider (sim.Config.CandidateCap) — the k-nearest
	// pre-filter that bounds per-order matching work for very large
	// fleets. 0 keeps the exact radius search.
	CandidateCap int
	// Scenario configures the disruption layer (rider cancellations,
	// driver declines, travel-time noise); the zero value keeps the
	// engine byte-identical to a scenario-free run. See
	// sim.ScenarioConfig.
	Scenario sim.ScenarioConfig
	// Pooling configures shared rides (see pool.Config): with Capacity
	// >= 2 busy drivers carry route plans and the batch prices
	// detour-bounded insertions alongside solo pairs. The zero value
	// keeps the engine byte-identical to a pooling-free run.
	Pooling pool.Config
	// Shards is the engine count of the lockstep harness (internal/shard,
	// default 1), read only by ShardSession: the grid's regions are split
	// across Shards engines, each owning the fleet slice starting in its
	// territory. bench/'s peak_shard2 workload and tests are its only
	// callers; every other run is one engine. Values below 1 are
	// rejected when the harness is built, as are Scenario, Pooling,
	// Repositioner and Obs, which it does not serve.
	Shards int
	// Obs wires the observability layer (metrics registry and order
	// tracer, see sim.ObsConfig) into every engine the runner builds.
	// The zero value keeps runs byte-identical to an uninstrumented
	// build.
	Obs sim.ObsConfig
}

// slotSeconds is the prediction slot width: the paper's 30 minutes.
const slotSeconds = 1800

// WithDefaults returns a copy of the options with every unset field
// replaced by its documented default.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.City == nil {
		o.City = workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31})
	}
	if o.NumDrivers <= 0 {
		o.NumDrivers = 100
	}
	if o.Delta <= 0 {
		o.Delta = 3
	}
	if o.TC <= 0 {
		o.TC = 1200
	}
	if o.Horizon <= 0 {
		o.Horizon = 24 * 3600
	}
	if o.TrainDays <= 0 {
		o.TrainDays = predict.MinLookbackDays + 14
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	return o
}

// Runner owns one problem instance — a generated test day, a starting
// fleet, and cached prediction state — and executes dispatch algorithms
// over it (Algorithm 1).
type Runner struct {
	opts     Options
	orders   []trace.Order
	starts   []geo.Point
	expected [][]float64 // oracle slot x region intensities of the test day

	history    *predict.History // lazily built: train days + test day realized counts
	trainedSet map[string]predict.Predictor
}

// NewRunner materializes the problem instance: the test-day trace is
// generated from the city and drivers start at sampled pickup locations
// (the paper's initialization, Section 6.2).
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	orders := opts.City.GenerateDay(opts.TrainDays, rng)
	starts := opts.City.InitialDrivers(opts.NumDrivers, orders, rng)
	return NewRunnerWithOrders(opts, orders, starts)
}

// NewRunnerWithOrders builds a runner over an externally supplied trace
// (e.g., a converted TLC extract). A nil starts samples the fleet's
// start positions from the trace's pickups with the options' seed — the
// one place that recipe lives, so Run, Serve and Sweep position the same
// fleet for the same (trace, seed, fleet). The city still provides the
// grid and the oracle/trained predictions.
func NewRunnerWithOrders(opts Options, orders []trace.Order, starts []geo.Point) *Runner {
	opts = opts.withDefaults()
	if starts == nil {
		rng := rand.New(rand.NewSource(opts.Seed))
		starts = opts.City.InitialDrivers(opts.NumDrivers, orders, rng)
	}
	return &Runner{
		opts:       opts,
		orders:     orders,
		starts:     starts,
		expected:   opts.City.ExpectedDayCounts(opts.TrainDays, slotSeconds),
		trainedSet: make(map[string]predict.Predictor),
	}
}

// Orders exposes the test-day trace.
func (r *Runner) Orders() []trace.Order { return r.orders }

// Starts exposes the fleet's initial positions.
func (r *Runner) Starts() []geo.Point { return r.starts }

// Options returns the (defaulted) options.
func (r *Runner) Options() Options { return r.opts }

// History returns the runner's count history: the training days plus the
// test day's realized counts (predictors only read strictly-past cells,
// so appending the whole day is sound). It is built lazily and cached.
func (r *Runner) History() *predict.History { return r.ensureHistory() }

// fork returns a fresh runner over the same materialized instance:
// orders, starts and oracle intensities are shared (all read-only during
// runs), while the history pointer and predictor cache start empty so
// the fork trains and runs independently. Sweep forks one instance per
// cell instead of regenerating it.
func (r *Runner) fork() *Runner {
	return &Runner{
		opts:       r.opts,
		orders:     r.orders,
		starts:     r.starts,
		expected:   r.expected,
		trainedSet: make(map[string]predict.Predictor),
	}
}

// ShareFrom copies another runner's built history and trained predictors.
// Valid only when both runners use the same city, TrainDays and
// instance seed (so orders — and hence the appended test-day counts —
// are identical); it exists so parameter sweeps that vary only the fleet
// size or batch timing don't regenerate months of history per point.
func (r *Runner) ShareFrom(other *Runner) {
	r.history = other.history
	//mrvdlint:ignore maporder map-to-map copy; the resulting cache is identical whatever the visit order
	for k, v := range other.trainedSet {
		r.trainedSet[k] = v
	}
}

// ensureHistory builds the history on first use.
func (r *Runner) ensureHistory() *predict.History {
	if r.history != nil {
		return r.history
	}
	h := predict.GenerateHistory(r.opts.City, r.opts.TrainDays, slotSeconds, r.opts.Seed+1000)
	dayCounts := trace.CountPerSlot(r.orders, r.opts.City.Grid(), slotSeconds, float64(workload.DaySeconds))
	// CountPerSlot returns horizon/slot+1 rows; trim to the history's
	// slots-per-day shape.
	if len(dayCounts) > h.SlotsPerDay {
		dayCounts = dayCounts[:h.SlotsPerDay]
	}
	h.AppendDay(dayCounts, r.opts.City.DayMeta(r.opts.TrainDays))
	r.history = h
	return h
}

// TrainedPredictor returns a predictor trained on the runner's history,
// caching by model name. Training excludes the test day.
func (r *Runner) TrainedPredictor(m predict.Predictor) (predict.Predictor, error) {
	if p, ok := r.trainedSet[m.Name()]; ok {
		return p, nil
	}
	h := r.ensureHistory()
	if err := m.Train(h, r.opts.TrainDays); err != nil {
		return nil, fmt.Errorf("core: training %s: %w", m.Name(), err)
	}
	r.trainedSet[m.Name()] = m
	return m, nil
}

// windowCount converts per-slot forecasts into region k's expected
// count for the window [now, now+tc], weighting each slot by its
// fractional overlap. slotRow returns one slot's forecast for every
// region.
func windowCount(now, tc, slotSeconds float64, numSlots int, slotRow func(slot int) []float64, k geo.RegionID) int {
	acc := 0.0
	end := now + tc
	firstSlot := int(now / slotSeconds)
	lastSlot := int(end / slotSeconds)
	for s := firstSlot; s <= lastSlot; s++ {
		slotStart := float64(s) * slotSeconds
		lo := max(now, slotStart)
		hi := min(end, slotStart+slotSeconds)
		if hi <= lo {
			continue
		}
		frac := (hi - lo) / slotSeconds
		acc += frac * slotRow(min(s, numSlots-1))[k]
	}
	return int(acc + 0.5)
}

// predictFn builds the simulator's PredictRiders callback for a mode.
// The engine calls it once per region a batch reads, on the session's
// one goroutine.
func (r *Runner) predictFn(mode PredictionMode, model predict.Predictor) (func(now, tc float64, k geo.RegionID) int, error) {
	switch mode {
	case PredictNone:
		return nil, nil
	case PredictOracle:
		slotRow := func(slot int) []float64 { return r.expected[slot] }
		return func(now, tc float64, k geo.RegionID) int {
			return windowCount(now, tc, slotSeconds, len(r.expected), slotRow, k)
		}, nil
	case PredictModel:
		if model == nil {
			return nil, fmt.Errorf("core: PredictModel requires a predictor")
		}
		trained, err := r.TrainedPredictor(model)
		if err != nil {
			return nil, err
		}
		h := r.ensureHistory()
		testDay := r.opts.TrainDays
		n := r.opts.City.Grid().NumRegions()
		// Memoize per-slot forecasts, a whole row on a slot's first read:
		// the callback fires per region read, on the session's one
		// goroutine (each session builds its own).
		rows := make([][]float64, h.SlotsPerDay)
		slotRow := func(slot int) []float64 {
			row := rows[slot]
			if row == nil {
				row = make([]float64, n)
				for k := 0; k < n; k++ {
					row[k] = trained.Predict(h, testDay, slot, k)
				}
				rows[slot] = row
			}
			return row
		}
		return func(now, tc float64, k geo.RegionID) int {
			return windowCount(now, tc, slotSeconds, h.SlotsPerDay, slotRow, k)
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown prediction mode %d", mode)
	}
}

// simConfig assembles the simulator configuration for one run.
func (r *Runner) simConfig(fn func(now, tc float64, k geo.RegionID) int) sim.Config {
	registerCosterMetrics(r.opts.Obs.Registry, r.opts.Coster)
	return sim.Config{
		Grid:            r.opts.City.Grid(),
		Coster:          r.opts.Coster,
		Delta:           r.opts.Delta,
		TC:              r.opts.TC,
		Horizon:         r.opts.Horizon,
		CandidateCap:    r.opts.CandidateCap,
		Scenario:        r.opts.Scenario,
		Pooling:         r.opts.Pooling,
		PredictRiders:   fn,
		Repositioner:    r.opts.Repositioner,
		RepositionAfter: r.opts.RepositionAfter,
		Observer:        r.opts.Observer,
		PaceFactor:      r.opts.PaceFactor,
		Obs:             r.opts.Obs,
	}
}

// costerStatser is the optional query-counter capability GraphCoster
// implements; anything exposing it gets its counters published.
type costerStatser interface{ Stats() roadnet.CosterStats }

// registerCosterMetrics publishes a stats-capable coster's query
// counters as counter functions on reg. The closures are evaluated at
// gather time, so /metrics always reads the live counters;
// re-registering (each simConfig call) replaces the closure so the
// newest session's coster wins. A coster without counters registers
// nothing — the closed-form coster has no trees to observe.
func registerCosterMetrics(reg *obs.Registry, c roadnet.Coster) {
	if reg == nil {
		return
	}
	s, ok := c.(costerStatser)
	if !ok {
		return
	}
	total := s.Stats
	reg.CounterFunc("mrvd_coster_trees_total",
		"Dijkstra runs issued by single-pair Cost queries, each completing its source's tree.",
		func() int64 { return total().Trees })
	reg.CounterFunc("mrvd_coster_partial_trees_total",
		"Dijkstra runs issued by batched Costs queries, each stopping once the batch's targets are settled.",
		func() int64 { return total().PartialTrees })
	reg.CounterFunc("mrvd_coster_resumed_total",
		"Dijkstra runs that continued a cached tree from its frontier instead of starting at the source.",
		func() int64 { return total().Resumed })
	reg.CounterFunc("mrvd_coster_settled_nodes_total",
		"Nodes finalized across all Dijkstra runs.",
		func() int64 { return total().SettledNodes })
	reg.CounterFunc("mrvd_coster_cache_hits_total",
		"Coster queries answered from a published shortest-path tree.",
		func() int64 { return total().CacheHits })
	reg.CounterFunc("mrvd_coster_cache_misses_total",
		"Coster queries that had to run Dijkstra (from the source or from a published tree's frontier).",
		func() int64 { s := total(); return s.Trees + s.PartialTrees })
}

// config resolves what every run of the instance shares: the simulator
// configuration for a prediction mode and stop rule — the horizon, or
// earlier once the source is exhausted and every rider and driver is
// done — and the fleet's start positions (nil = the instance's own).
func (r *Runner) config(starts []geo.Point, mode PredictionMode, model predict.Predictor, stopWhenDrained bool) (sim.Config, []geo.Point, error) {
	fn, err := r.predictFn(mode, model)
	if err != nil {
		return sim.Config{}, nil, err
	}
	if starts == nil {
		starts = r.starts
	}
	cfg := r.simConfig(fn)
	cfg.StopWhenDrained = stopWhenDrained
	return cfg, starts, nil
}

// engine is the one place a session is assembled: one sim.Engine over
// src (see config).
func (r *Runner) engine(src sim.OrderSource, starts []geo.Point, mode PredictionMode, model predict.Predictor, stopWhenDrained bool) (*sim.Engine, error) {
	cfg, starts, err := r.config(starts, mode, model, stopWhenDrained)
	if err != nil {
		return nil, err
	}
	return sim.NewWithSource(cfg, src, starts), nil
}

// Run replays the instance's trace to the horizon with d and returns the
// metrics; model is only consulted in PredictModel mode. d must be fresh
// (NewDispatcher): dispatchers are stateful. The context cancels the run
// between batches (the run returns the context's error, wrapped).
func (r *Runner) Run(ctx context.Context, d sim.Dispatcher, mode PredictionMode, model predict.Predictor) (*sim.Metrics, error) {
	e, err := r.engine(sim.NewSliceSource(r.orders), nil, mode, model, false)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, d)
}

// Session builds — but does not run — the engine over a live order
// source: its Run ends at the horizon, when its context is canceled, or
// — once src is exhausted — when no rider waits and no driver is busy.
// It is the serving path's seam.
func (r *Runner) Session(src sim.OrderSource, starts []geo.Point, mode PredictionMode, model predict.Predictor) (*sim.Engine, error) {
	return r.engine(src, starts, mode, model, true)
}

// RunSource runs Session over src with d to its end.
func (r *Runner) RunSource(ctx context.Context, d sim.Dispatcher, mode PredictionMode, model predict.Predictor, src sim.OrderSource, starts []geo.Point) (*sim.Metrics, error) {
	e, err := r.Session(src, starts, mode, model)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, d)
}

// ShardSession builds — but does not run — the Options.Shards-engine
// lockstep harness (internal/shard) over src with Session's stop rule.
// Only bench/'s peak_shard2 workload and tests use it; run the returned
// runtime with ShardDispatchers. The partition is weighted by the
// trace's pickup counts — equal-area stripes would leave one shard with
// most of a hotspot city's load.
func (r *Runner) ShardSession(src sim.OrderSource, starts []geo.Point, mode PredictionMode, model predict.Predictor) (*shard.Runtime, error) {
	cfg, starts, err := r.config(starts, mode, model, true)
	if err != nil {
		return nil, err
	}
	w := shard.OrderWeights(r.opts.City.Grid(), r.orders)
	return shard.New(shard.Config{Sim: cfg, Shards: r.opts.Shards, Weights: w}, src, starts)
}

// ShardDispatchers returns ShardSession's per-shard dispatcher factory
// for a named algorithm: every shard gets a fresh instance (dispatchers
// are stateful), and stochastic dispatchers get decorrelated per-shard
// seeds forked with stats.SplitSeed. A 1-shard run keeps the parent
// seed so it reproduces Run exactly.
func ShardDispatchers(algorithm string, seed int64, shards int) func(shard int) (sim.Dispatcher, error) {
	return func(i int) (sim.Dispatcher, error) {
		s := seed
		if shards > 1 {
			s = stats.SplitSeed(seed, i)
		}
		return NewDispatcher(algorithm, s)
	}
}

// AlgorithmNames lists the dispatchers NewDispatcher accepts, in the
// paper's reporting order.
func AlgorithmNames() []string {
	return []string{"IRG", "LS", "SHORT", "LTG", "NEAR", "RAND", "POLAR", "UPPER", "POOL"}
}

// NewDispatcher builds a fresh dispatcher by name. Stateful dispatchers
// (RAND, POLAR) must not be shared across runs; call this per run.
func NewDispatcher(name string, seed int64) (sim.Dispatcher, error) {
	switch name {
	case "IRG":
		return &dispatch.IRG{Model: queueing.NewDefault()}, nil
	case "LS":
		return &dispatch.LS{Model: queueing.NewDefault()}, nil
	case "SHORT":
		return &dispatch.SHORT{Model: queueing.NewDefault()}, nil
	case "LTG":
		return dispatch.LTG{}, nil
	case "NEAR":
		return dispatch.NEAR{}, nil
	case "RAND":
		return &dispatch.RAND{Seed: seed}, nil
	case "POLAR":
		return &dispatch.POLAR{}, nil
	case "UPPER":
		return dispatch.UPPER{}, nil
	case "POOL":
		return dispatch.POOL{}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (have %v)", name, AlgorithmNames())
	}
}
