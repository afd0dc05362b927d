package mrvd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mrvd/internal/core"
	"mrvd/internal/pool"
	"mrvd/internal/shard"
	"mrvd/internal/sim"
)

// Service is the streaming, context-aware entry point to the framework.
// It separates order sources from the dispatch engine: the same
// configured service runs recorded traces (Run), live Submit-driven
// streams (Serve), and parallel experiment grids (Sweep), all
// cancellable through a context and observable through event hooks.
//
// Build one with NewService and functional options:
//
//	svc, err := mrvd.NewService(
//		mrvd.WithCity(city),
//		mrvd.WithFleet(500),
//		mrvd.WithPrediction(mrvd.PredictOracle, nil),
//	)
//	metrics, err := svc.Run(ctx, "LS")
//
// A Service is immutable after construction and safe for concurrent use
// as long as its Coster and Observer are (the default coster is; see
// WithCoster).
type Service struct {
	opts   core.Options
	mode   PredictionMode
	model  Predictor
	orders []Order
	starts []Point
	errs   []error
}

// Option configures a Service. Options validate their arguments eagerly:
// a nonsensical value (non-positive fleet, nil coster) is reported as an
// error from NewService instead of surfacing as a confusing default or a
// failure deep inside the engine.
type Option func(*Service)

func (s *Service) failf(format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf("mrvd: "+format, args...))
}

// WithCity sets the demand workload (default: scaled NYC-like city).
func WithCity(c *City) Option {
	return func(s *Service) {
		if c == nil {
			s.failf("WithCity: nil city")
			return
		}
		s.opts.City = c
	}
}

// WithFleet sets the driver count (default 100).
func WithFleet(n int) Option {
	return func(s *Service) {
		if n <= 0 {
			s.failf("WithFleet: fleet size must be positive, got %d", n)
			return
		}
		s.opts.NumDrivers = n
	}
}

// WithBatchInterval sets the batch interval delta in seconds (default 3,
// Table 2).
func WithBatchInterval(seconds float64) Option {
	return func(s *Service) {
		if seconds <= 0 || math.IsNaN(seconds) {
			s.failf("WithBatchInterval: interval must be positive, got %v", seconds)
			return
		}
		s.opts.Delta = seconds
	}
}

// WithSchedulingWindow sets the queueing-analysis window t_c in seconds
// (default 1200).
func WithSchedulingWindow(seconds float64) Option {
	return func(s *Service) {
		if seconds <= 0 || math.IsNaN(seconds) {
			s.failf("WithSchedulingWindow: window must be positive, got %v", seconds)
			return
		}
		s.opts.TC = seconds
	}
}

// WithHorizon sets the simulated span in seconds (default one day).
func WithHorizon(seconds float64) Option {
	return func(s *Service) {
		if seconds <= 0 || math.IsNaN(seconds) {
			s.failf("WithHorizon: horizon must be positive, got %v", seconds)
			return
		}
		s.opts.Horizon = seconds
	}
}

// WithCoster sets the travel-cost backend (default Manhattan distance at
// urban speed); every shard of a session prices through it. For Sweep,
// the coster is shared across parallel runs and must be safe for
// concurrent use; DefaultCoster and GraphCoster are.
// Costers implementing BatchCoster are priced one call per batch —
// only the batch's candidate pairs, when they also implement
// roadnet.PairCoster as GraphCoster does; plain Costers are priced cell
// by cell.
func WithCoster(c Coster) Option {
	return func(s *Service) {
		if c == nil {
			s.failf("WithCoster: nil coster (omit the option for the default)")
			return
		}
		s.opts.Coster = c
	}
}

// WithSeed sets the instance seed for trace sampling and driver starts
// (default 0).
func WithSeed(seed int64) Option { return func(s *Service) { s.opts.Seed = seed } }

// WithPrediction selects the demand-forecast source consulted by the
// queueing-aware dispatchers: PredictNone, PredictOracle (default), or
// PredictModel with a predictor.
func WithPrediction(mode PredictionMode, model Predictor) Option {
	return func(s *Service) {
		if mode == PredictModel && model == nil {
			s.failf("WithPrediction: PredictModel requires a predictor")
			return
		}
		s.mode, s.model = mode, model
	}
}

// WithPace throttles runs to at most factor simulated seconds per wall
// second (1 = real time, 0 = free-run, the default). Live Serve with
// producers stamping PostTime off the wall clock requires pacing —
// an unpaced engine simulates hours per wall second while it has work
// and would expire wall-clock-stamped orders on arrival.
func WithPace(factor float64) Option {
	return func(s *Service) {
		if factor < 0 || math.IsNaN(factor) {
			s.failf("WithPace: factor must be >= 0, got %v", factor)
			return
		}
		s.opts.PaceFactor = factor
	}
}

// WithScenario enables the disruption layer for every run and serve
// session of the service: stochastic rider cancellations (CancelRate,
// drawn from each order's deadline slack via the workload patience
// model), driver declines with cooldown (DeclineProb,
// DeclineCooldown), and seeded travel-time noise (TravelNoise) whose
// estimate-vs-realized gap lands in Metrics.TravelRecords. The zero
// config is exactly equivalent to omitting the option — the engine
// stays byte-identical to a scenario-free run. Explicit cancels
// (ServeHandle.Cancel, the gateway's DELETE /v1/orders/{id}) work with
// or without this option.
func WithScenario(sc ScenarioConfig) Option {
	return func(s *Service) {
		if sc.CancelRate < 0 || sc.CancelRate > 1 || math.IsNaN(sc.CancelRate) {
			s.failf("WithScenario: cancel rate must be in [0,1], got %v", sc.CancelRate)
			return
		}
		if sc.DeclineProb < 0 || sc.DeclineProb > 1 || math.IsNaN(sc.DeclineProb) {
			s.failf("WithScenario: decline probability must be in [0,1], got %v", sc.DeclineProb)
			return
		}
		if sc.DeclineCooldown < 0 || math.IsNaN(sc.DeclineCooldown) {
			s.failf("WithScenario: decline cooldown must be >= 0, got %v", sc.DeclineCooldown)
			return
		}
		if sc.TravelNoise < 0 || math.IsNaN(sc.TravelNoise) || math.IsInf(sc.TravelNoise, 0) {
			s.failf("WithScenario: travel noise must be a finite value >= 0, got %v", sc.TravelNoise)
			return
		}
		s.opts.Scenario = sc
	}
}

// WithPooling enables shared rides: busy drivers carry an ordered
// route plan of pickup and dropoff stops, and every batch prices
// detour-bounded insertions of waiting riders into active plans
// alongside the solo pairs (see the POOL dispatcher). capacity is the
// onboard rider limit per driver; maxDetourSeconds bounds how far any
// rider's door-to-door time may stretch past their direct trip (0
// keeps the 300s default). WithPooling(1, 0) — capacity one — and
// omitting the option are byte-identical: the engine runs the exact
// solo code path.
func WithPooling(capacity int, maxDetourSeconds float64) Option {
	return func(s *Service) {
		if capacity < 1 {
			s.failf("WithPooling: capacity must be >= 1, got %d", capacity)
			return
		}
		if maxDetourSeconds < 0 || math.IsNaN(maxDetourSeconds) || math.IsInf(maxDetourSeconds, 0) {
			s.failf("WithPooling: max detour must be a finite value >= 0, got %v", maxDetourSeconds)
			return
		}
		s.opts.Pooling = pool.Config{Capacity: capacity, MaxDetourSeconds: maxDetourSeconds}
	}
}

// WithShards sets how many dispatch engines the session runs on (default
// 1). Every run is a source → router → n engines → aggregated stream
// pipeline: each shard owns a disjoint, contiguous set of grid regions
// and the slice of the fleet that starts there, the router admits every
// order to the shard owning its pickup region, the session's one
// goroutine steps the engines one after another in lockstep rounds, and
// events plus metrics aggregate back into one city-wide stream. With
// one shard that is a single engine over the whole city. n < 1 is
// rejected. Sharding partitions what a dispatcher sees; it does not use
// more cores, and no per-run hook (Coster, PredictRiders, Repositioner,
// Observer) is ever called from two goroutines of one session. The
// Observer sees driver ids in the global fleet numbering.
func WithShards(n int) Option {
	return func(s *Service) {
		if n < 1 {
			s.failf("WithShards: shard count must be >= 1, got %d", n)
			return
		}
		s.opts.Shards = n
	}
}

// WithBoundaryPolicy selects what happens to riders whose patience
// radius crosses a shard frontier: StrictOwnership (the default) always
// admits an order to the shard owning its pickup region;
// CandidateBorrow lets a frontier order be admitted by a neighbouring
// shard with available drivers in reach when the owner has none. One
// shard has no frontier, so the policy only matters with WithShards(n > 1).
func WithBoundaryPolicy(p BoundaryPolicy) Option {
	return func(s *Service) {
		switch p {
		case StrictOwnership:
			s.opts.Borrow = false
		case CandidateBorrow:
			s.opts.Borrow = true
		default:
			s.failf("WithBoundaryPolicy: unknown policy %d", p)
		}
	}
}

// WithObservability wires the metrics registry and/or order-lifecycle
// tracer into every run and serve session of the service: dispatch
// phase timings, terminal-outcome counters, pool search counters and
// coster cache counters land in reg (scrape with reg.WriteText or the
// gateway's /metrics), and every order that reaches a terminal state
// emits one JSON span to tracer. Either may be nil to enable just the
// other. Unlike WithObserver this layer is engine-internal and adds
// only a nil check per hook when disabled — omitting the option keeps
// runs byte-identical to an uninstrumented build. The registry and
// tracer are safe to share across concurrent sessions and sweep cells.
func WithObservability(reg *MetricsRegistry, tracer *SpanTracer) Option {
	return func(s *Service) {
		if reg == nil && tracer == nil {
			s.failf("WithObservability: nil registry and tracer (omit the option instead)")
			return
		}
		s.opts.Obs.Registry = reg
		s.opts.Obs.Tracer = tracer
	}
}

// WithObserver subscribes an event observer to every run: batch starts,
// assignments, expiries and repositions stream out as they happen
// instead of being scraped from Metrics afterwards. Compose several with
// sim.Observers.
func WithObserver(o Observer) Option {
	return func(s *Service) {
		if o == nil {
			s.failf("WithObserver: nil observer (omit the option instead)")
			return
		}
		s.opts.Observer = o
	}
}

// WithRepositioner enables active repositioning of drivers idle longer
// than afterSeconds (0 keeps the 300s default threshold).
func WithRepositioner(r Repositioner, afterSeconds float64) Option {
	return func(s *Service) {
		if r == nil {
			s.failf("WithRepositioner: nil repositioner (omit the option instead)")
			return
		}
		if afterSeconds < 0 || math.IsNaN(afterSeconds) {
			s.failf("WithRepositioner: idle threshold must be >= 0, got %v", afterSeconds)
			return
		}
		s.opts.Repositioner = r
		s.opts.RepositionAfter = afterSeconds
	}
}

// WithOrders replays an external trace (e.g. a converted TLC extract)
// instead of generating one from the city. starts may be nil to sample
// driver start positions from the trace's pickups.
func WithOrders(orders []Order, starts []Point) Option {
	return func(s *Service) {
		if orders == nil {
			s.failf("WithOrders: nil trace (omit the option to generate one)")
			return
		}
		for i, o := range orders {
			if err := o.Valid(); err != nil {
				s.failf("WithOrders: order %d: %v", i, err)
				return
			}
		}
		s.orders, s.starts = orders, starts
	}
}

// NewService builds a Service; zero options give the quickstart default:
// a scaled NYC-like city, 100 drivers, the paper's batch timing and
// oracle demand forecasts. Invalid option arguments (non-positive fleet,
// nil coster, a model-prediction mode without a model) are reported
// here, joined, instead of failing deep inside the engine; the returned
// Service is non-nil but refuses to run while invalid.
func NewService(opts ...Option) (*Service, error) {
	s := &Service{mode: PredictOracle}
	for _, o := range opts {
		o(s)
	}
	return s, errors.Join(s.errs...)
}

// Err returns the joined option-validation errors, nil when the service
// is runnable. Every entry point (Run, Serve, Start, Sweep) fails fast
// with this error, so ignoring NewService's error cannot smuggle an
// invalid configuration into the engine.
func (s *Service) Err() error { return errors.Join(s.errs...) }

// Options returns the service's (not yet defaulted) runner options.
func (s *Service) Options() Options { return s.opts }

// newRunner materializes a problem instance for one run.
func (s *Service) newRunner(seed int64) *Runner {
	opts := s.opts
	opts.Seed = seed
	if s.orders != nil {
		return core.NewRunnerWithOrders(opts, s.orders, s.starts)
	}
	return core.NewRunner(opts)
}

// dispatchers returns the per-shard dispatcher factory for a named
// algorithm, failing on an unknown name before any instance is built.
func (s *Service) dispatchers(algorithm string) (func(shard int) (sim.Dispatcher, error), error) {
	if _, err := core.NewDispatcher(algorithm, s.opts.Seed); err != nil {
		return nil, err
	}
	return core.ShardDispatchers(algorithm, s.opts.Seed, s.opts.Shards), nil
}

// Run simulates one full trace — generated from the city, or the
// WithOrders replay — under the named algorithm and returns its metrics,
// aggregated over the session's shards. The context cancels the run
// between batches.
func (s *Service) Run(ctx context.Context, algorithm string) (*Metrics, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	newDispatcher, err := s.dispatchers(algorithm)
	if err != nil {
		return nil, err
	}
	return s.newRunner(s.opts.Seed).Run(ctx, newDispatcher, s.mode, s.model)
}

// Runner exposes the materialized problem instance for callers that need
// the lower-level API (history sharing, trained predictors).
func (s *Service) Runner() *Runner { return s.newRunner(s.opts.Seed) }

// Serve dispatches a live order stream: orders arrive through src —
// typically a ChannelSource fed by concurrent Submit calls — and the
// run ends at the horizon, on ctx cancellation, or once src is closed,
// drained and every trip completed. starts positions the fleet; nil
// samples starts the way Run does. Producers stamping PostTime off the
// wall clock need WithPace. Unpaced, a ChannelSource session's clock
// advances only while it has work (a rider waiting, an order or cancel
// in src), so a feed that waits for a clock time must keep one queued.
func (s *Service) Serve(ctx context.Context, algorithm string, src OrderSource, starts []Point) (*Metrics, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("mrvd: Serve requires an OrderSource")
	}
	rt, newDispatcher, err := s.liveSession(algorithm, src, starts)
	if err != nil {
		return nil, err
	}
	return rt.Run(ctx, newDispatcher)
}

// liveSession builds — without running — the runtime and per-shard
// dispatcher factory of a Serve or Start session over src.
func (s *Service) liveSession(algorithm string, src OrderSource, starts []Point) (*shard.Runtime, func(shard int) (sim.Dispatcher, error), error) {
	newDispatcher, err := s.dispatchers(algorithm)
	if err != nil {
		return nil, nil, err
	}
	var runner *Runner
	if starts != nil && s.orders == nil {
		// With an explicit fleet there is no reason to materialize a
		// synthetic day trace the streaming run would never read.
		runner = core.NewRunnerWithOrders(s.opts, nil, starts)
	} else {
		// A nil starts falls through to the runner's own sampled fleet.
		runner = s.newRunner(s.opts.Seed)
	}
	rt, err := runner.ShardSession(src, starts, s.mode, s.model)
	return rt, newDispatcher, err
}

// SweepSpec re-exports the grid description of core.Sweep.
type SweepSpec = core.SweepSpec

// SweepResult is one completed sweep cell.
type SweepResult = core.SweepResult

// Sweep runs every (algorithm × seed × fleet-size) combination of the
// spec — plus its series rows and option layers, if any — in
// parallel on a bounded worker pool, reusing per-seed history and
// trained predictors across cells. Results are in grid order and
// deterministic: a parallel sweep's Metrics.Summary values are identical
// to a sequential (Workers: 1) sweep's.
//
// The spec's Mode and Model are used verbatim (the zero Mode is
// PredictNone) — they deliberately do not inherit WithPrediction, so an
// explicit no-prediction sweep is always expressible regardless of how
// the service is configured. A WithOrders trace (and its explicit
// starts, if any) does carry over: every cell replays it. Per-run hooks
// do not: the cells run unobserved and unpaced, since a shared Observer
// would race across workers and pacing would throttle each cell to
// wall-clock speed.
func (s *Service) Sweep(ctx context.Context, spec SweepSpec) ([]SweepResult, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if spec.Orders == nil {
		spec.Orders, spec.Starts = s.orders, s.starts
	}
	return core.Sweep(ctx, s.opts, spec)
}

// Outcome is the terminal result of one submitted order — the dispatch
// decision a production platform would push back to the rider's device:
// the session ledger's view of the order (ServeHandle.Store) at the
// moment it turned terminal. Times are engine seconds.
type Outcome = sim.OrderView

// Submit error conditions a caller dispatches on (errors.Is).
var (
	// ErrServeFinished: the serve session has ended; no further orders
	// are accepted.
	ErrServeFinished = sim.ErrSessionEnded
	// ErrQueueFull: the session's in-flight limit is reached; the
	// caller should shed load (the HTTP gateway answers 429).
	ErrQueueFull = sim.ErrInFlightLimit
)

// errUnknownOrder: Cancel named an order this session does not have in
// flight — never submitted, or already resolved.
var errUnknownOrder = errors.New("mrvd: order unknown or already resolved")

// ServeHandle is a live serve session started with Service.Start. It
// owns the session's ChannelSource and its order ledger (Store), which
// books every submitted order and hands each one's terminal view back
// to its submitter, so callers — the HTTP gateway above all — can await
// each order's outcome instead of only the run's final Metrics. All
// methods are safe for concurrent use.
type ServeHandle struct {
	src    *ChannelSource
	store  *sim.StateStore
	cancel context.CancelFunc
	done   chan struct{}

	bounds BBox // the session city's grid extent

	// shardStats reads the session runtime's live per-shard counters.
	shardStats func() []shard.Stats

	// Written once by the serve goroutine before done closes.
	metrics *Metrics
	err     error
}

// Start begins a live serve session and returns immediately with its
// handle: the engine runs Serve on an internal ChannelSource in a
// background goroutine while producers feed it through handle.Submit.
// starts positions the fleet the way Serve does (nil samples from the
// instance). Extra observers — an event broadcaster, say — are
// subscribed for this session only, after the session's ledger and
// before the service-level WithObserver. Like every observer they run
// inline on the engine goroutine and must be fast.
//
// The session ends when ctx is canceled, the horizon is reached, or —
// after Close — the submitted stream drains; Result blocks for the
// final metrics. Producers stamping PostTime off the wall clock need
// WithPace (see Serve); gateways should instead stamp off Clock. An
// unpaced session parks while it has no work, as Serve's does.
func (s *Service) Start(ctx context.Context, algorithm string, starts []Point, observers ...Observer) (*ServeHandle, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	h := &ServeHandle{
		src:    NewChannelSource(),
		store:  sim.NewStateStore(),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	obs := append(sim.Observers{h.store}, observers...)
	if s.opts.Observer != nil {
		obs = append(obs, s.opts.Observer)
	}
	run := *s
	run.opts.Observer = obs
	// Build the session synchronously: a bad algorithm or configuration
	// fails here rather than through Result, long after the caller wired
	// a gateway, and the handle can expose per-shard stats while the
	// session runs. Only the batch loop goes to the background goroutine.
	rt, newDispatcher, err := run.liveSession(algorithm, h.src, starts)
	if err != nil {
		cancel()
		return nil, err
	}
	h.shardStats = rt.Stats
	h.bounds = rt.Partition().Grid().Bounds()
	go func() {
		h.metrics, h.err = rt.Run(ctx, newDispatcher)
		// Closing the ledger resolves every order still in flight as
		// canceled (the session ended) before Done reports the session
		// finished.
		h.store.Close()
		close(h.done)
		cancel()
	}()
	return h, nil
}

// Store exposes the session's order ledger and live state views: every
// submitted order from pending to its one terminal state, per-driver
// views, and the engine counters. An order's entry already equals its
// Outcome when the channel Submit returned delivers it.
func (h *ServeHandle) Store() *sim.StateStore { return h.store }

// Submit enqueues one order for dispatch and returns the session-unique
// id assigned to it plus a single-use channel that receives the order's
// terminal Outcome (assigned, expired, canceled by the rider, or
// canceled when the session ends first) and is then closed. The
// submitted order's ID field is overwritten with the assigned id;
// PostTime and Deadline are taken verbatim — live producers should
// stamp PostTime at or near Clock so the order's patience starts from
// the engine's present, not its past.
func (h *ServeHandle) Submit(o Order) (OrderID, <-chan Outcome, error) {
	id, outcome, err := h.store.Register(o, h.src)
	// A Close-d source while the session drains is the session going
	// away, not the order's fault — surface it as such.
	if errors.Is(err, sim.ErrSourceClosed) {
		err = ErrServeFinished
	}
	return id, outcome, err
}

// Cancel requests a rider-initiated cancellation of an in-flight order.
// The cancel is applied by the engine at its next batch: if the order
// is still waiting (or not yet admitted) its waiter resolves canceled
// by the rider; if a driver was assigned in the meantime the cancel
// loses the race and the waiter resolves assigned — exactly the race a
// production platform adjudicates. Cancel itself only validates that
// the order is in flight: it fails for ids this session never issued or
// already resolved, and with ErrServeFinished after the session ends.
func (h *ServeHandle) Cancel(id OrderID) error {
	select {
	case <-h.done:
		return ErrServeFinished
	default:
	}
	if v, ok := h.store.Order(id); !ok || v.State != sim.OrderPending {
		return errUnknownOrder
	}
	h.src.Cancel(id)
	return nil
}

// Clock returns the engine time of the most recent batch — the stamp a
// gateway should put on incoming orders' PostTime so their patience
// starts at the engine's present regardless of pacing. Before the
// first batch it is 0. Unpaced, it stands still while idle (see Serve).
func (h *ServeHandle) Clock() float64 { return h.store.Clock() }

// Bounds returns the extent of the session city's grid. The engine
// clamps a point outside it into an edge region, so ingestion edges
// should refuse such orders rather than book them.
func (h *ServeHandle) Bounds() BBox { return h.bounds }

// InFlight reports how many submitted orders have not reached a
// terminal outcome yet. After the session ends it reports 0.
func (h *ServeHandle) InFlight() int { return h.store.InFlight() }

// SetInFlightLimit bounds how many submitted orders may await an
// outcome at once: Submit fails with ErrQueueFull beyond it — the
// admission-control lever behind the gateway's 429s. 0 (the default)
// is unbounded.
func (h *ServeHandle) SetInFlightLimit(n int) { h.store.SetInFlightLimit(n) }

// Pending reports how many submitted orders the source has not yet
// released into the engine.
func (h *ServeHandle) Pending() int { return h.src.Pending() }

// ShardStats returns the session's live per-shard counters: one entry
// per shard (territory, fleet slice, queue depths, batch timings, borrow
// counts) — a single entry covering the whole city by default. Safe for
// concurrent use while the session runs.
func (h *ServeHandle) ShardStats() []ShardStats { return h.shardStats() }

// Close marks the order stream complete: already-submitted orders are
// still dispatched, further Submit calls fail, and the session ends
// once the stream drains (every rider terminal, every driver free).
// Close is idempotent and does not wait; use Result to.
func (h *ServeHandle) Close() { h.src.Close() }

// Stop cancels the session's context: the engine exits between batches
// and every in-flight order resolves canceled by the session's end.
// Stop does not wait; use Result to.
func (h *ServeHandle) Stop() { h.cancel() }

// Done is closed once the session has fully finished: the engine
// goroutine has exited and every waiter is resolved.
func (h *ServeHandle) Done() <-chan struct{} { return h.done }

// Result blocks until the session finishes and returns its final
// metrics. A session stopped by context cancellation returns the
// context's error (wrapped) and no metrics, matching Serve.
func (h *ServeHandle) Result() (*Metrics, error) {
	<-h.done
	return h.metrics, h.err
}
