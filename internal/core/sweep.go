package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// SweepSeries is one row of a sweep grid: a labelled dispatcher with its
// own demand-forecast source. It is what lets one grid hold the paper's
// IRG-P (IRG fed by a trained model) next to IRG-R (IRG fed by the
// oracle), or LS seeded by RAND next to LS seeded by IRG.
type SweepSeries struct {
	// Label names the series in results (SweepPoint.Algorithm); empty
	// defaults to Algorithm.
	Label string
	// Algorithm is a dispatcher name accepted by NewDispatcher. Ignored
	// when New is set.
	Algorithm string
	// New, when set, builds the series' dispatcher directly — the
	// variants the name factory cannot express. It is called once per
	// cell with that cell's instance seed and must return a fresh
	// instance each time.
	New func(seed int64) sim.Dispatcher
	// Mode and Model select this series' forecast source. In
	// PredictModel mode Model receives the cell's instance seed and must
	// return a fresh untrained predictor; it is trained once per (city,
	// seed, predictor name) and then shared read-only by every cell of
	// the grid with that key, whatever its layer, fleet or series.
	Mode  PredictionMode
	Model func(seed int64) predict.Predictor
}

func (s SweepSeries) label() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Algorithm
}

// dispatcher builds the series' fresh dispatcher for a cell's seed.
func (s SweepSeries) dispatcher(seed int64) (sim.Dispatcher, error) {
	if s.New == nil {
		return NewDispatcher(s.Algorithm, seed)
	}
	return s.New(seed), nil
}

// SweepLayer is one named overlay of the base options: every (series,
// seed, fleet) combination runs once under each layer.
type SweepLayer struct {
	Name string
	// Apply edits a copy of the base options — batch interval, window,
	// city, coster, scenario, pooling, repositioner... It runs once per
	// (seed, fleet) instance, so stateful values it installs are not
	// shared across instances. Seed and NumDrivers are overwritten from
	// the grid axes afterwards; nil leaves the base untouched.
	Apply func(*Options)
}

// SweepSpec describes a (layer × seed × fleet-size × series) experiment
// grid. The zero value of Seeds and Fleets falls back to the base
// options' seed and fleet and the zero Layers to the base options alone,
// so a spec with only Algorithms set compares dispatchers on one
// instance.
type SweepSpec struct {
	// Algorithms are dispatcher names accepted by NewDispatcher; each is
	// a series labelled by its name that forecasts from Mode and Model.
	Algorithms []string
	// Series are further rows, after the Algorithms, each with its own
	// label, dispatcher and forecast source.
	Series []SweepSeries
	// Layers are the option overlays; empty runs the base options.
	Layers []SweepLayer
	// Seeds are instance seeds; each seed is one generated problem
	// instance shared by every series of a (layer, fleet).
	Seeds []int64
	// Fleets are driver counts (Options.NumDrivers values), each >= 1.
	Fleets []int
	// Workers bounds the parallel runs; 0 means GOMAXPROCS, 1 runs the
	// grid sequentially. Results are identical either way: each point is
	// an independent deterministic simulation, and results are returned
	// in grid order regardless of completion order.
	Workers int
	// Mode and Model select the demand-forecast source of the Algorithms
	// rows. In PredictModel mode Model must be a factory returning a
	// fresh untrained predictor: one instance is trained per seed
	// (training mutates the model) and then shared read-only across that
	// seed's points.
	Mode  PredictionMode
	Model func() predict.Predictor
	// Orders, when set, replays this fixed external trace for every
	// cell instead of generating a day from the city; seeds then vary
	// only the sampled fleet starts (and, in PredictModel mode, the
	// training history).
	Orders []trace.Order
	// Starts optionally pins the fleet's start positions for an Orders
	// replay. When set, Fleets defaults to {len(Starts)} and every
	// requested fleet size must equal len(Starts).
	Starts []geo.Point
}

func (s SweepSpec) withDefaults(base Options) SweepSpec {
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{base.Seed}
	}
	if len(s.Fleets) == 0 {
		if s.Starts != nil {
			s.Fleets = []int{len(s.Starts)}
		} else {
			s.Fleets = []int{base.withDefaults().NumDrivers}
		}
	}
	if len(s.Layers) == 0 {
		s.Layers = []SweepLayer{{}}
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	return s
}

// rows returns the grid's series: the Algorithms under the spec's
// forecast source, then the explicit Series.
func (s SweepSpec) rows() []SweepSeries {
	rows := make([]SweepSeries, 0, len(s.Algorithms)+len(s.Series))
	for _, alg := range s.Algorithms {
		row := SweepSeries{Algorithm: alg, Mode: s.Mode}
		if s.Model != nil {
			row.Model = func(int64) predict.Predictor { return s.Model() }
		}
		rows = append(rows, row)
	}
	return append(rows, s.Series...)
}

// SweepPoint identifies one cell of the grid.
type SweepPoint struct {
	// Algorithm is the cell's series label — the dispatcher name unless
	// the series sets its own.
	Algorithm string
	Layer     string
	Seed      int64
	Fleet     int
}

// SweepResult is one completed cell: its metrics on success, or the
// first error that stopped it.
type SweepResult struct {
	SweepPoint
	Metrics *sim.Metrics
	Err     error
}

// forEach runs fn(0) … fn(n-1) on at most workers goroutines and waits
// for all of them — the sweep's one worker pool.
func forEach(workers, n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Sweep executes every (layer, seed, fleet, series) combination of the
// spec over the base options on a bounded worker pool. It is the one
// place grids materialize problem instances and share prediction state:
// each (layer, seed, fleet) instance — trace, fleet starts, oracle
// intensities — is built once and shared read-only by that instance's
// series cells, and each (city, seed) builds one history on which every
// distinct predictor a PredictModel series asks for is trained once and
// shared via ShareFrom — across layers too, so sweeping the batch
// interval or the fleet never regenerates months of history or retrains
// a model per cell.
//
// Results come back in grid order — layers outermost, then seeds, then
// fleets, then series — independent of scheduling, and each cell's
// Metrics are identical to a sequential run of that cell (see
// sim.Metrics.Summary for the determinism contract; the wall-clock
// DispatchPhase times vary). Canceling ctx stops in-flight runs and
// returns the context error; per-cell failures land in SweepResult.Err
// without aborting other cells.
func Sweep(ctx context.Context, base Options, spec SweepSpec) ([]SweepResult, error) {
	spec = spec.withDefaults(base)
	rows := spec.rows()
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one algorithm")
	}
	for _, row := range rows {
		if row.New == nil {
			if _, err := NewDispatcher(row.Algorithm, 0); err != nil {
				return nil, err
			}
		}
		if row.Mode == PredictModel && row.Model == nil {
			return nil, fmt.Errorf("core: PredictModel sweep requires a model factory (series %q)", row.label())
		}
	}
	for _, fleet := range spec.Fleets {
		if fleet < 1 {
			return nil, fmt.Errorf("core: sweep fleet %d: fleet sizes must be >= 1", fleet)
		}
		if spec.Starts != nil && fleet != len(spec.Starts) {
			return nil, fmt.Errorf("core: sweep fleet %d != %d pinned starts", fleet, len(spec.Starts))
		}
	}
	if spec.Starts != nil && spec.Orders == nil {
		return nil, fmt.Errorf("core: sweep Starts requires Orders")
	}
	// Every cell of the grid shares one city and one coster instance
	// unless a layer swaps them: resolve the nil defaults here rather
	// than per cell. (The city's identity keys the shared histories; the
	// default coster is stateless, so that only pins down the sharing
	// contract — a user-supplied coster, e.g. a road network whose snap
	// index and shortest-path trees then warm across the grid, is shared
	// by construction. Costers must be safe for concurrent use; both
	// built-ins are.)
	if base.City == nil {
		base.City = base.withDefaults().City
	}
	if base.Coster == nil {
		base.Coster = roadnet.NewDefaultCoster()
	}

	// Materialize each (layer, seed, fleet) instance once, concurrently.
	// The instance runner is never Run directly; cells fork it.
	type instKey struct {
		layer int
		seed  int64
		fleet int
	}
	var keys []instKey
	instances := make(map[instKey]*Runner)
	for li := range spec.Layers {
		for _, seed := range spec.Seeds {
			for _, fleet := range spec.Fleets {
				k := instKey{li, seed, fleet}
				if _, ok := instances[k]; !ok {
					instances[k] = &Runner{}
					keys = append(keys, k)
				}
			}
		}
	}
	forEach(spec.Workers, len(keys), func(i int) {
		if ctx.Err() != nil {
			return
		}
		k := keys[i]
		o := base
		if apply := spec.Layers[k.layer].Apply; apply != nil {
			apply(&o)
		}
		o.Seed = k.seed
		o.NumDrivers = k.fleet
		// Per-run hooks don't carry into sweep cells: a shared Observer
		// would be invoked from every worker goroutine at once with no
		// cell identity, and pacing is a live-serving concern that would
		// throttle each cell to wall-clock speed.
		o.Observer = nil
		o.PaceFactor = 0
		if spec.Orders != nil {
			*instances[k] = *NewRunnerWithOrders(o, spec.Orders, spec.Starts)
		} else {
			*instances[k] = *NewRunner(o)
		}
	})

	// Build one history per (city, seed) — on the first instance that
	// has them — and train on it every predictor the PredictModel series
	// name, one group per worker; the other modes never touch history
	// (the oracle reads precomputed intensities).
	type histKey struct {
		city      *workload.City
		trainDays int
		seed      int64
	}
	type trained struct {
		runner *Runner
		models []predict.Predictor // per series; nil outside PredictModel
		errs   []error
	}
	histOf := func(r *Runner) histKey {
		return histKey{r.opts.City, r.opts.TrainDays, r.opts.Seed}
	}
	var groups []*trained
	shared := make(map[histKey]*trained)
	usesModel := false
	for _, row := range rows {
		usesModel = usesModel || row.Mode == PredictModel
	}
	if usesModel && ctx.Err() == nil {
		for _, k := range keys {
			hk := histOf(instances[k])
			if _, ok := shared[hk]; !ok {
				g := &trained{runner: instances[k], models: make([]predict.Predictor, len(rows)), errs: make([]error, len(rows))}
				shared[hk] = g
				groups = append(groups, g)
			}
		}
		forEach(spec.Workers, len(groups), func(i int) {
			g := groups[i]
			for ri, row := range rows {
				if row.Mode == PredictModel && ctx.Err() == nil {
					// Cached by predictor name: rows naming the same
					// model get the one trained instance.
					g.models[ri], g.errs[ri] = g.runner.TrainedPredictor(row.Model(g.runner.opts.Seed))
				}
			}
		})
	}

	type job struct {
		inst instKey
		row  int
	}
	var jobs []job
	for li := range spec.Layers {
		for _, seed := range spec.Seeds {
			for _, fleet := range spec.Fleets {
				for ri := range rows {
					jobs = append(jobs, job{instKey{li, seed, fleet}, ri})
				}
			}
		}
	}
	results := make([]SweepResult, len(jobs))
	forEach(spec.Workers, len(jobs), func(i int) {
		j, row := jobs[i], rows[jobs[i].row]
		res := SweepResult{SweepPoint: SweepPoint{
			Algorithm: row.label(), Layer: spec.Layers[j.inst.layer].Name, Seed: j.inst.seed, Fleet: j.inst.fleet,
		}}
		defer func() { results[i] = res }()
		// Unstarted cells are marked canceled; in-flight runs notice the
		// cancellation at their next batch.
		if res.Err = ctx.Err(); res.Err != nil {
			return
		}
		runner := instances[j.inst].fork()
		var model predict.Predictor
		if row.Mode == PredictModel {
			g := shared[histOf(runner)]
			if res.Err = g.errs[j.row]; res.Err != nil {
				return
			}
			runner.ShareFrom(g.runner)
			model = g.models[j.row]
		}
		d, err := row.dispatcher(j.inst.seed)
		if res.Err = err; err != nil {
			return
		}
		res.Metrics, res.Err = runner.Run(ctx, d, row.Mode, model)
	})
	return results, ctx.Err()
}
