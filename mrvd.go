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
// svc.Sweep executes (algorithm × seed × fleet) grids on a parallel
// worker pool with deterministic results; it is the one executor every
// experiment in the repo runs on. Service.Start runs a live serve session in the background and returns a ServeHandle whose
// Submit routes each order's terminal Outcome back to the caller — the
// seam the HTTP gateway (internal/server, cmd/mrvd-serve) builds on.
// Every session is one dispatch engine over the whole city, stepped by
// the session's one goroutine. WithScenario(cfg) turns on the
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
// The package's Example functions are runnable scenarios with pinned
// output: a quick-start day (Example), a morning-peak comparison, a
// fleet-sizing sweep, disruptions, rebalancing, shared rides and the
// idle-time table (ExampleExpectedIdleTime). examples/livedispatch
// streams orders into a running engine and examples/httpserve drives
// the HTTP gateway end to end; cmd/mrvd-exp runs the experiment
// presets: one Sweep per grid, each preset a grid plus a renderer — the
// paper's tables, figures and ablations, and the disruption, pooling
// and fleet matrices with trial statistics.
package mrvd

import (
	"io"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/predict"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
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
)

// Workload types.
type (
	// City is a synthetic demand model with NYC-like marginals.
	City = workload.City
	// CityConfig parameterizes a City.
	CityConfig = workload.CityConfig
	// Order is one ride request (rider r_i with deadline tau_i).
	Order = trace.Order
	// OrderID names one order.
	OrderID = trace.OrderID
)

// Simulation types.
type (
	// Metrics aggregates one simulated day.
	Metrics = sim.Metrics
	// Summary is the deterministic projection of Metrics (no wall-clock
	// fields) — the unit of Sweep's reproducibility contract.
	Summary = sim.Summary
	// Coster prices travel between two points in seconds. Costers that
	// also implement roadnet.BatchCoster are priced once per batch —
	// through roadnet.PairCoster, the candidate pairs only.
	Coster = roadnet.Coster
	// Repositioner proposes cruise targets for long-idle drivers.
	Repositioner = sim.Repositioner
	// ScenarioConfig gates the engine's disruption layer: stochastic
	// rider cancellations, driver declines with cooldown, and seeded
	// travel-time noise. The zero value disables all three and keeps
	// runs byte-identical to a scenario-free engine.
	ScenarioConfig = sim.ScenarioConfig
)

// Streaming order sources (see Service.Serve).
type (
	// OrderSource feeds orders to the engine incrementally.
	OrderSource = sim.OrderSource
	// ChannelSource accepts live Submit-driven orders from concurrent
	// producers.
	ChannelSource = sim.ChannelSource
)

// Event observation (see WithObserver).
type (
	// Observer receives engine lifecycle events during a run.
	Observer = sim.Observer
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

// Observability types (see WithObservability).
type (
	// MetricsRegistry collects counters, gauges and histograms from every
	// instrumented layer and renders them in Prometheus text format
	// (WriteText) — dependency-free and safe for concurrent use.
	MetricsRegistry = obs.Registry
	// SpanTracer streams order-lifecycle spans as JSON lines.
	SpanTracer = obs.Tracer
)

// NewMetricsRegistry returns an empty metrics registry to pass to
// WithObservability (and the gateway's Config.Metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanTracer returns a tracer writing one JSON span per line to w.
// Close it after the run to flush and release w.
func NewSpanTracer(w io.Writer) *SpanTracer { return obs.NewTracer(w) }

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
)

// Prediction modes, mirroring the paper's -P/-R algorithm variants.
const (
	PredictNone   = core.PredictNone
	PredictOracle = core.PredictOracle
	PredictModel  = core.PredictModel
)

// NewCity builds a synthetic city; zero-value config gives the scaled
// NYC-like default.
func NewCity(cfg CityConfig) *City { return workload.NewCity(cfg) }

// NewChannelSource returns an open source for live, Submit-driven
// dispatch (see Service.Serve).
func NewChannelSource() *ChannelSource { return sim.NewChannelSource() }

// AlgorithmNames lists the built-in dispatchers: IRG, LS, SHORT, LTG,
// NEAR, RAND, POLAR, UPPER, POOL.
func AlgorithmNames() []string { return core.AlgorithmNames() }

// ExpectedIdleTime evaluates ET(lambda, mu) with the default reneging
// model: the expected wait of a driver rejoining a region with rider
// arrival rate lambda and driver arrival rate mu (per second), where at
// most k drivers can congest.
func ExpectedIdleTime(lambda, mu float64, k int) float64 {
	return queueing.NewDefault().ExpectedIdleTime(lambda, mu, k)
}

// GraphCoster prices travel on a synthetic Manhattan-style road network
// generated over the NYC box with the given seed, for studies where
// straight-line costs are too coarse.
func GraphCoster(seed int64) Coster {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: seed})
	return roadnet.NewGraphCoster(g)
}

// ReadOrdersCSV reads a trace in the library's CSV format, so real data
// (e.g., a converted TLC extract, or mrvd-sim -write-trace output) can
// replace the synthetic workload through WithOrders.
func ReadOrdersCSV(r io.Reader) ([]Order, error) { return trace.ReadCSV(r) }
