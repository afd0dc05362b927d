// Package mrvd is a queueing-theoretic vehicle dispatching framework for
// dynamic car-hailing, reproducing Cheng et al., "A Queueing-Theoretic
// Framework for Vehicle Dispatching in Dynamic Car-Hailing" (ICDE 2019).
//
// The library solves the Maximum Revenue Vehicle Dispatching (MRVD)
// problem: riders arrive online with pickup deadlines, and the platform
// assigns available drivers in short batches so that total revenue
// (alpha times the summed travel cost of served orders) is maximized.
// Its core is a double-sided birth-death queueing model per city region
// that yields a closed-form expected driver idle time, which the IRG and
// LS batch dispatchers use to prioritize (rider, driver) pairs.
//
// Quick start — one simulated day under the paper's local search:
//
//	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 28000, Seed: 1})
//	svc, err := mrvd.NewService(mrvd.WithCity(city), mrvd.WithFleet(100))
//	metrics, err := svc.Run(context.Background(), "LS")
//
// The Service API is streaming and context-aware: orders can arrive
// live through a ChannelSource (svc.Serve), runs cancel through their
// context, per-event observers subscribe with WithObserver, and
// svc.Sweep executes (algorithm × seed × fleet) grids — optionally with
// labelled SweepSeries rows that carry their own dispatcher and
// forecast source — on a parallel worker pool with deterministic
// results; it is the one executor every experiment in the repo runs
// on. Service.Start runs a live
// serve session in the background and returns a ServeHandle whose
// Submit routes each order's terminal Outcome back to the caller — the
// seam the HTTP gateway (internal/server, cmd/mrvd-serve) builds on.
// Every session runs on one runtime (internal/shard): a router admits
// each order to the shard owning its pickup region and 1..n lockstep
// dispatch engines serve their slices of the city, all stepped by the
// session's one goroutine — one engine by default, WithShards(n) to
// partition the city, with a configurable frontier policy
// (WithBoundaryPolicy) and per-shard stats on the gateway's /v1/stats. WithScenario(cfg) turns on the
// disruption layer — stochastic rider cancellations, driver declines
// with cooldown, and noisy realized travel times with an
// estimate-vs-realized error ledger — while riders can always cancel
// explicitly through ServeHandle.Cancel or the gateway's DELETE
// /v1/orders/{id}; a zero-valued ScenarioConfig keeps the engine
// byte-identical to a scenario-free run. WithPooling(capacity, detour)
// turns on shared rides: busy drivers carry an ordered route plan of
// stops, every batch prices detour-bounded insertions of waiting
// riders into active plans through the same batched cost matrices as
// solo pairs, and the POOL dispatcher weighs both; capacity 1 (or
// omitting the option) keeps the engine byte-identical to a
// pooling-free run.
//
// See examples/ for runnable scenarios (examples/livedispatch streams
// orders into a running engine, examples/httpserve drives the HTTP
// gateway end to end) and cmd/mrvd-exp for the experiment presets: one
// Sweep per grid, each preset a grid plus a renderer — the paper's
// tables, figures and ablations, and the disruption, pooling and fleet
// matrices with trial statistics.
package mrvd

import (
	"io"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/pool"
	"mrvd/internal/predict"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/shard"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// Geospatial types.
type (
	// Point is a WGS-84 coordinate (Lng east, Lat north).
	Point = geo.Point
	// BBox is a lng/lat bounding box.
	BBox = geo.BBox
	// Grid partitions a bounding box into equal rectangular regions.
	Grid = geo.Grid
	// RegionID names one grid cell.
	RegionID = geo.RegionID
)

// Workload types.
type (
	// City is a synthetic demand model with NYC-like marginals.
	City = workload.City
	// CityConfig parameterizes a City.
	CityConfig = workload.CityConfig
	// Hotspot is one activity center of a City.
	Hotspot = workload.Hotspot
	// Order is one ride request (rider r_i with deadline tau_i).
	Order = trace.Order
	// OrderID names one order.
	OrderID = trace.OrderID
)

// Simulation and dispatch types.
type (
	// Dispatcher decides each batch's assignments (Algorithm 1 line 7).
	Dispatcher = sim.Dispatcher
	// DriverID indexes a driver in the fleet.
	DriverID = sim.DriverID
	// Metrics aggregates one simulated day.
	Metrics = sim.Metrics
	// Summary is the deterministic projection of Metrics (no wall-clock
	// fields) — the unit of Sweep's reproducibility contract.
	Summary = sim.Summary
	// SimConfig parameterizes a raw simulation (most callers use Service).
	SimConfig = sim.Config
	// Coster prices travel between two points in seconds.
	Coster = roadnet.Coster
	// BatchCoster is a Coster with many-to-many matrix pricing; custom
	// costers that implement it are priced in one dense Costs call per
	// batch, plain Costers only in the cells the engine reads. The
	// graph-backed built-in batches — through roadnet.PairCoster, the
	// candidate pairs only; the closed-form one, too cheap per cell to
	// batch, is a plain Coster.
	BatchCoster = roadnet.BatchCoster
	// Repositioner proposes cruise targets for long-idle drivers.
	Repositioner = sim.Repositioner
)

// Disruption-scenario types (see WithScenario).
type (
	// ScenarioConfig gates the engine's disruption layer: stochastic
	// rider cancellations, driver declines with cooldown, and seeded
	// travel-time noise. The zero value disables all three and keeps
	// runs byte-identical to a scenario-free engine.
	ScenarioConfig = sim.ScenarioConfig
	// CancelModel maps a uniform draw to a rider's abandonment time;
	// the default is the workload package's constant-hazard Patience.
	CancelModel = sim.CancelModel
	// RiderPatience is the default constant-hazard abandonment model:
	// P(cancel before deadline) is exact per order, with the hazard
	// drawn from the order's deadline slack.
	RiderPatience = workload.Patience
	// TravelRecord is one estimate-vs-realized travel-time observation
	// of the noise scenario (Metrics.TravelRecords).
	TravelRecord = sim.TravelRecord
)

// Streaming order sources (see Service.Serve).
type (
	// OrderSource feeds orders to the engine incrementally.
	OrderSource = sim.OrderSource
	// SliceSource replays a fixed trace.
	SliceSource = sim.SliceSource
	// ChannelSource accepts live Submit-driven orders from concurrent
	// producers.
	ChannelSource = sim.ChannelSource
)

// Event observation (see WithObserver).
type (
	// Observer receives engine lifecycle events during a run.
	Observer = sim.Observer
	// Observers fans events out to several observers.
	Observers = sim.Observers
	// ObserverFuncs adapts free functions to Observer.
	ObserverFuncs = sim.ObserverFuncs
	// BatchStartEvent, AssignedEvent, ExpiredEvent, CanceledEvent,
	// DeclinedEvent and RepositionedEvent are the event payloads.
	BatchStartEvent   = sim.BatchStartEvent
	AssignedEvent     = sim.AssignedEvent
	ExpiredEvent      = sim.ExpiredEvent
	CanceledEvent     = sim.CanceledEvent
	DeclinedEvent     = sim.DeclinedEvent
	RepositionedEvent = sim.RepositionedEvent
	// PickedUpEvent and DroppedOffEvent are the pooled stop completions
	// (emitted only with WithPooling enabled).
	PickedUpEvent   = sim.PickedUpEvent
	DroppedOffEvent = sim.DroppedOffEvent
)

// Ride pooling types (see WithPooling).
type (
	// PoolingConfig gates shared rides: Capacity >= 2 lets busy drivers
	// carry a route plan of stops and the batch price detour-bounded
	// insertions. The zero value (and Capacity 1) keeps the engine
	// byte-identical to a pooling-free run.
	PoolingConfig = pool.Config
	// RoutePlan is a pooled driver's ordered stop sequence.
	RoutePlan = pool.Plan
	// RouteStop is one pickup or dropoff on a RoutePlan.
	RouteStop = pool.Stop
	// Insertion is one feasible placement of an order into a RoutePlan.
	Insertion = pool.Insertion
)

// Observability types (see WithObservability).
type (
	// MetricsRegistry collects counters, gauges and histograms from every
	// instrumented layer and renders them in Prometheus text format
	// (WriteText) — dependency-free and safe for concurrent use.
	MetricsRegistry = obs.Registry
	// MetricFamily is one gathered metric family snapshot.
	MetricFamily = obs.Family
	// Span is one order's lifecycle record: submit → admit → commit →
	// pickup → terminal, with per-phase durations and attribution.
	Span = obs.Span
	// SpanTracer streams order-lifecycle spans as JSON lines.
	SpanTracer = obs.Tracer
	// ObsConfig wires a registry and/or tracer into a raw sim.Config;
	// Service callers use WithObservability instead.
	ObsConfig = sim.ObsConfig
	// MetricsCollector snapshots a MetricsRegistry on a fixed interval
	// into ring buffers of per-window deltas — counter rates, gauge
	// values, interpolated histogram quantiles — and evaluates an SLO
	// rule set per window (the gateway's /v1/timeseries and enriched
	// /healthz feed, and mrvd-top's data source).
	MetricsCollector = obs.Collector
	// CollectorConfig configures a MetricsCollector: source registry,
	// interval, ring capacity, rules, and an optional per-window hook.
	CollectorConfig = obs.CollectorConfig
	// TimeSeriesDump is a collector's full ring-buffer dump — the
	// GET /v1/timeseries payload.
	TimeSeriesDump = obs.TimeSeries
	// HealthRule is one declarative SLO bound over collected windows,
	// with breach ("for") and clear streaks for hysteresis.
	HealthRule = obs.Rule
	// HealthSelector names the metric a HealthRule watches and how to
	// reduce it (rate, value, delta, mean, p50/p95/p99; sum, max or
	// imbalance across label sets).
	HealthSelector = obs.Selector
	// HealthState is ok, degraded or unhealthy.
	HealthState = obs.State
	// HealthReport is the evaluated rule states plus recent transitions
	// — the enriched /healthz body.
	HealthReport = obs.Health
)

// Health states reported by a MetricsCollector's rule engine.
const (
	HealthOK        = obs.StateOK
	HealthDegraded  = obs.StateDegraded
	HealthUnhealthy = obs.StateUnhealthy
)

// NewMetricsRegistry returns an empty metrics registry to pass to
// WithObservability (and the gateway's Config.Metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanTracer returns a tracer writing one JSON span per line to w.
// Close it after the run to flush and release w.
func NewSpanTracer(w io.Writer) *SpanTracer { return obs.NewTracer(w) }

// NewMetricsCollector returns an unstarted collector over cfg.Registry.
// Call Start to begin interval collection and Stop to end it; the
// gateway starts one itself when its Config.Collect is set.
func NewMetricsCollector(cfg CollectorConfig) *MetricsCollector { return obs.NewCollector(cfg) }

// DefaultDispatchRules returns the stock SLO rule set for a dispatch
// session: a served-fraction floor, a submit-to-terminal p95 latency
// ceiling, a queue-depth growth bound, and a shard round-time
// imbalance bound.
func DefaultDispatchRules() []HealthRule { return obs.DefaultDispatchRules() }

// RegisterProcessMetrics adds process-runtime gauges (goroutines, heap
// in use, cumulative GC pause, uptime) to reg, as mrvd-serve does when
// metrics are enabled.
func RegisterProcessMetrics(reg *MetricsRegistry) { obs.RegisterProcessMetrics(reg) }

// Sharded runtime types (see WithShards).
type (
	// BoundaryPolicy decides where orders whose patience radius crosses
	// a shard frontier are admitted (see WithBoundaryPolicy).
	BoundaryPolicy = shard.BoundaryPolicy
	// ShardStats is one shard's live counter snapshot, served per shard
	// by the HTTP gateway's /v1/stats.
	ShardStats = shard.Stats
)

// Boundary policies for sharded runs.
const (
	// StrictOwnership always admits an order to the shard owning its
	// pickup region.
	StrictOwnership = shard.StrictOwnership
	// CandidateBorrow admits a frontier order to a neighbouring shard
	// with available supply in reach when the owner shard has none.
	CandidateBorrow = shard.CandidateBorrow
)

// Framework types.
type (
	// Options is the configuration a Service's With* options fill in
	// (see Service.Options).
	Options = core.Options
	// Runner owns one materialized problem instance — trace, fleet
	// starts, history and trained predictors — for the lower-level
	// history-sharing workflow; get one from Service.Runner.
	Runner = core.Runner
	// PredictionMode selects the demand-forecast source.
	PredictionMode = core.PredictionMode
	// Predictor forecasts per-region, per-slot order counts.
	Predictor = predict.Predictor
	// QueueModel evaluates the double-sided region queue (Section 4).
	QueueModel = queueing.Model
	// QueueConfig parameterizes a QueueModel.
	QueueConfig = queueing.Config
)

// Prediction modes, mirroring the paper's -P/-R algorithm variants.
const (
	PredictNone   = core.PredictNone
	PredictOracle = core.PredictOracle
	PredictModel  = core.PredictModel
)

// NYCBBox is the paper's experimental extent of New York City.
var NYCBBox = geo.NYCBBox

// NewCity builds a synthetic city; zero-value config gives the scaled
// NYC-like default.
func NewCity(cfg CityConfig) *City { return workload.NewCity(cfg) }

// NewNYCGrid returns the paper's 16x16 grid over NYC.
func NewNYCGrid() *Grid { return geo.NewNYCGrid() }

// NewGrid builds a rows x cols grid over a bounding box.
func NewGrid(box BBox, rows, cols int) *Grid { return geo.NewGrid(box, rows, cols) }

// NewSliceSource wraps a fixed trace in the OrderSource interface,
// validated and sorted by post time.
func NewSliceSource(orders []Order) *SliceSource { return sim.NewSliceSource(orders) }

// NewChannelSource returns an open source for live, Submit-driven
// dispatch (see Service.Serve).
func NewChannelSource() *ChannelSource { return sim.NewChannelSource() }

// AlgorithmNames lists the built-in dispatchers: IRG, LS, SHORT, LTG,
// NEAR, RAND, POLAR, UPPER, POOL.
func AlgorithmNames() []string { return core.AlgorithmNames() }

// NewDispatcher builds a fresh dispatcher by name; seed feeds stochastic
// baselines (RAND).
func NewDispatcher(name string, seed int64) (Dispatcher, error) {
	return core.NewDispatcher(name, seed)
}

// NewQueueModel builds the double-sided queueing model of Section 4.
func NewQueueModel(cfg QueueConfig) *QueueModel { return queueing.New(cfg) }

// ExpectedIdleTime evaluates ET(lambda, mu) with the default reneging
// model: the expected wait of a driver rejoining a region with rider
// arrival rate lambda and driver arrival rate mu (per second), where at
// most k drivers can congest.
func ExpectedIdleTime(lambda, mu float64, k int) float64 {
	return queueing.NewDefault().ExpectedIdleTime(lambda, mu, k)
}

// Predictors returns fresh instances of the paper's demand models:
// STNet (the DeepST substitute), HA, LR and GBRT.
func Predictors(seed int64) []Predictor { return predict.All(seed) }

// NewIRG returns the idle-ratio oriented greedy dispatcher (Algorithm 2).
func NewIRG() Dispatcher { return &dispatch.IRG{} }

// NewLS returns the local search dispatcher (Algorithm 3), seeded by IRG.
func NewLS() Dispatcher { return &dispatch.LS{} }

// DefaultCoster returns the Manhattan-distance coster at urban speed.
func DefaultCoster() Coster { return roadnet.NewDefaultCoster() }

// GraphCoster prices travel on a synthetic Manhattan-style road network
// generated over the NYC box with the given seed, for studies where
// straight-line costs are too coarse.
func GraphCoster(seed int64) Coster {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: seed})
	return roadnet.NewGraphCoster(g)
}

// WriteOrdersCSV and ReadOrdersCSV expose the trace format so real data
// (e.g., a converted TLC extract) can replace the synthetic workload.
var (
	WriteOrdersCSV = trace.WriteCSV
	ReadOrdersCSV  = trace.ReadCSV
)
