package core

import (
	"context"
	"fmt"
	"mrvd/internal/geo"
	"runtime"
	"sync"

	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// SweepSpec describes an (algorithm × seed × fleet-size) experiment grid.
// The zero value of Seeds and Fleets falls back to the base options'
// seed and fleet, so a spec with only Algorithms set compares dispatchers
// on one instance.
type SweepSpec struct {
	// Algorithms are dispatcher names accepted by NewDispatcher.
	Algorithms []string
	// Seeds are instance seeds; each seed is one generated problem
	// instance shared by every algorithm and fleet size.
	Seeds []int64
	// Fleets are driver counts (Options.NumDrivers values).
	Fleets []int
	// Workers bounds the parallel runs; 0 means GOMAXPROCS, 1 runs the
	// grid sequentially. Results are identical either way: each point is
	// an independent deterministic simulation, and results are returned
	// in grid order regardless of completion order.
	Workers int
	// Mode and Model select the demand-forecast source for every point.
	// In PredictModel mode Model must be a factory returning a fresh
	// untrained predictor: one instance is trained per seed (training
	// mutates the model) and then shared read-only across that seed's
	// points.
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
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	return s
}

// SweepPoint identifies one cell of the grid.
type SweepPoint struct {
	Algorithm string
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

// Sweep executes every (algorithm, seed, fleet) combination of the spec
// over the base options on a bounded worker pool. Each (seed, fleet)
// problem instance — trace, fleet starts, oracle intensities — is
// materialized once and shared read-only by that instance's algorithm
// cells, and in PredictModel mode each seed additionally shares one
// built history and trained predictor via ShareFrom, so sweeps never
// regenerate a day trace or months of history per cell.
//
// Results come back in grid order — seeds outermost, then fleets, then
// algorithms — independent of scheduling, and each cell's Metrics are
// identical to a sequential run of that cell (see sim.Metrics.Summary
// for the determinism contract; wall-clock BatchSeconds vary). Canceling
// ctx stops in-flight runs and returns the context error; per-cell
// failures land in SweepResult.Err without aborting other cells.
func Sweep(ctx context.Context, base Options, spec SweepSpec) ([]SweepResult, error) {
	spec = spec.withDefaults(base)
	for _, alg := range spec.Algorithms {
		if _, err := NewDispatcher(alg, 0); err != nil {
			return nil, err
		}
	}
	if len(spec.Algorithms) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one algorithm")
	}
	// Every cell of the grid runs one shared coster instance: resolve
	// the nil default here rather than per cell inside sim.Config.
	// (The default is stateless, so this only pins down the sharing
	// contract; a user-supplied coster — e.g. a road network, whose
	// snap index and tree cache then warm across the grid — is shared
	// by construction through base.Coster. Costers must be safe for
	// concurrent use; both built-ins are.)
	if base.Coster == nil {
		base.Coster = roadnet.NewDefaultCoster()
	}
	if spec.Mode == PredictModel && spec.Model == nil {
		return nil, fmt.Errorf("core: PredictModel sweep requires a model factory")
	}
	if spec.Starts != nil {
		if spec.Orders == nil {
			return nil, fmt.Errorf("core: sweep Starts requires Orders")
		}
		for _, fleet := range spec.Fleets {
			if fleet != len(spec.Starts) {
				return nil, fmt.Errorf("core: sweep fleet %d != %d pinned starts", fleet, len(spec.Starts))
			}
		}
	}

	cellOptions := func(p SweepPoint) Options {
		o := base
		o.Seed = p.Seed
		o.NumDrivers = p.Fleet
		// Per-run hooks don't carry into sweep cells: a shared Observer
		// would be invoked from every worker goroutine at once with no
		// cell identity, and pacing is a live-serving concern that would
		// throttle each cell to wall-clock speed.
		o.Observer = nil
		o.PaceFactor = 0
		return o
	}

	// Materialize each (seed, fleet) instance once, concurrently. The
	// instance runner is never Run directly; cells fork it.
	type instKey struct {
		seed  int64
		fleet int
	}
	instances := make(map[instKey]*Runner, len(spec.Seeds)*len(spec.Fleets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, spec.Workers)
	for _, seed := range spec.Seeds {
		for _, fleet := range spec.Fleets {
			k := instKey{seed, fleet}
			if _, ok := instances[k]; ok || ctx.Err() != nil {
				continue
			}
			r := &Runner{}
			instances[k] = r
			wg.Add(1)
			go func(k instKey, dst *Runner) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				o := cellOptions(SweepPoint{Seed: k.seed, Fleet: k.fleet})
				if spec.Orders != nil {
					*dst = *NewRunnerWithOrders(o, spec.Orders, spec.Starts)
				} else {
					*dst = *NewRunner(o)
				}
			}(k, r)
		}
	}
	wg.Wait()

	// In PredictModel mode, build one history and trained predictor per
	// seed on that seed's first instance; the other modes never touch
	// history (the oracle reads precomputed intensities).
	type seedBase struct {
		runner *Runner
		model  predict.Predictor
		err    error
	}
	bases := make(map[int64]*seedBase, len(spec.Seeds))
	if spec.Mode == PredictModel && ctx.Err() == nil {
		for _, seed := range spec.Seeds {
			if _, ok := bases[seed]; ok {
				continue
			}
			sb := &seedBase{runner: instances[instKey{seed, spec.Fleets[0]}]}
			bases[seed] = sb
			wg.Add(1)
			go func(sb *seedBase) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				sb.model, sb.err = sb.runner.TrainedPredictor(spec.Model())
			}(sb)
		}
		wg.Wait()
	}

	type job struct {
		idx   int
		point SweepPoint
	}
	var jobs []job
	for _, seed := range spec.Seeds {
		for _, fleet := range spec.Fleets {
			for _, alg := range spec.Algorithms {
				jobs = append(jobs, job{idx: len(jobs), point: SweepPoint{Algorithm: alg, Seed: seed, Fleet: fleet}})
			}
		}
	}
	results := make([]SweepResult, len(jobs))

	jobCh := make(chan job)
	var workers sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobCh {
				res := SweepResult{SweepPoint: j.point}
				sb := bases[j.point.Seed]
				switch {
				case ctx.Err() != nil:
					res.Err = ctx.Err()
				case sb != nil && sb.err != nil:
					res.Err = sb.err
				default:
					runner := instances[instKey{j.point.Seed, j.point.Fleet}].fork()
					var model predict.Predictor
					if sb != nil {
						runner.ShareFrom(sb.runner)
						model = sb.model
					}
					// A multi-shard cell steps its shards on their own
					// goroutines, inside this worker's slot.
					res.Metrics, res.Err = runner.Run(ctx,
						ShardDispatchers(j.point.Algorithm, j.point.Seed, base.Shards), spec.Mode, model)
				}
				results[j.idx] = res
			}
		}()
	}
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-ctx.Done():
			// Mark unscheduled cells canceled; in-flight runs notice the
			// cancellation at their next batch.
			results[j.idx] = SweepResult{SweepPoint: j.point, Err: ctx.Err()}
		}
	}
	close(jobCh)
	workers.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}
