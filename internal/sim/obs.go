package sim

import (
	"strconv"
	"time"

	"mrvd/internal/obs"
	"mrvd/internal/trace"
)

// ObsConfig wires the optional observability layer into an engine: a
// metrics registry and/or a tracer emitting one JSON span per terminal
// order, both folds over the engine's Observer stream plus the
// wall-clock timings no event carries. The zero value disables both;
// enabled, only wall-clock data that never feeds a Summary is touched,
// so determinism contracts (Sweep, 1-shard parity) hold either way.
type ObsConfig struct {
	// Registry collects counters and histograms; nil records nothing.
	Registry *obs.Registry
	// Tracer receives order-lifecycle spans; nil records nothing. A
	// tracer without a Registry still pays the counter updates, against
	// a private registry nobody reads.
	Tracer *obs.Tracer
	// Shard attributes this engine's spans to its shard of the session
	// runtime (0 with one shard, and for a bare engine).
	Shard int
}

// Enabled reports whether any observability sink is configured.
func (c ObsConfig) Enabled() bool { return c.Registry != nil || c.Tracer != nil }

// phase names one of a batch round's four wall-clock phases.
type phase int

const (
	phaseAdmit phase = iota
	phaseBuild
	phaseDispatch
	phaseApply
	numPhases
)

// stopwatch is the engine's one batch clock. It times the dispatch
// phase (the dispatcher's Assign) on every run, for
// Metrics.DispatchPhase; with obs enabled it also times admit, build and
// apply, and every timed phase feeds its mrvd_dispatch_phase_seconds
// child. A clock read can cost a few hundred nanoseconds against a
// batch of microseconds, so an unobserved batch reads the clock twice.
type stopwatch struct {
	phases [numPhases]*obs.Histogram // nil when obs is disabled
	mark   time.Time                 // start of the phase being timed
}

// start marks the beginning of phase p, if p is timed.
func (w *stopwatch) start(p phase) {
	if p == phaseDispatch || w.phases[p] != nil {
		w.mark = time.Now() //mrvdlint:ignore wallclock the batch stopwatch measures real phase cost, not simulated time
	}
}

// lap returns the wall time since the mark as phase p's, 0 if p is not
// timed, and moves the mark to now: a phase that directly follows needs
// no start. It reads only the monotonic clock, which costs less than
// time.Now's wall-and-monotonic pair.
func (w *stopwatch) lap(p phase) float64 {
	if p != phaseDispatch && w.phases[p] == nil {
		return 0
	}
	d := time.Since(w.mark) //mrvdlint:ignore wallclock the batch stopwatch measures real phase cost, not simulated time
	w.mark = w.mark.Add(d)
	if h := w.phases[p]; h != nil {
		h.Observe(d.Seconds())
	}
	return d.Seconds()
}

// obsState is the engine's observability machinery, nil when ObsConfig
// is zero-valued. It is an Observer — counters, gauges and span drafts
// are folds over the events every subscriber sees — and it runs first,
// so a user observer reading the tracer inside a callback finds that
// event's span already written. The engine calls it directly only for
// what no event carries (admission stamp, pooled-search tallies),
// through methods that are no-ops on a nil receiver.
type obsState struct {
	// The zero ObserverFuncs supplies the no-op OnDeclined/OnRepositioned.
	ObserverFuncs
	cfg ObsConfig

	// Instruments, resolved to concrete children at construction so the
	// hot paths touch only lock-free atomics, never the registry's family
	// locks — of a private registry when none is configured, never nil.
	admitted       *obs.Counter
	termServed     *obs.Counter
	termCanceled   *obs.Counter
	termReneged    *obs.Counter
	poolCandidates *obs.Counter
	poolFeasible   *obs.Counter
	poolCommitted  *obs.Counter
	queueDepth     *obs.Gauge
	driversAvail   *obs.Gauge

	// spans holds the in-flight order drafts; nil when no tracer is
	// configured.
	spans map[trace.OrderID]*spanDraft
}

// spanDraft accumulates one order's lifecycle until its terminal
// event emits the span.
type spanDraft struct {
	span      obs.Span
	wallStart time.Time
	committed bool
	picked    bool
}

// newObsState resolves the instruments, the clock's phases among them.
func newObsState(cfg ObsConfig, clock *stopwatch) *obsState {
	s := &obsState{cfg: cfg}
	r := cfg.Registry
	if r == nil {
		r = obs.NewRegistry()
	}
	phases := r.HistogramVec("mrvd_dispatch_phase_seconds",
		"Wall time of one engine batch round, broken into admit, build (the context, the candidate lists and the pair prices), dispatch (the dispatcher's Assign) and apply phases.",
		obs.DefBuckets, "phase")
	clock.phases[phaseAdmit] = phases.With("admit")
	clock.phases[phaseBuild] = phases.With("build")
	clock.phases[phaseDispatch] = phases.With("dispatch")
	clock.phases[phaseApply] = phases.With("apply")
	s.admitted = r.Counter("mrvd_orders_admitted_total",
		"Orders admitted from the source into the waiting set.")
	terminal := r.CounterVec("mrvd_orders_terminal_total",
		"Orders that reached a terminal state, by outcome (served, canceled, reneged).",
		"outcome")
	s.termServed = terminal.With(obs.OutcomeServed)
	s.termCanceled = terminal.With(obs.OutcomeCanceled)
	s.termReneged = terminal.With(obs.OutcomeReneged)
	s.poolCandidates = r.Counter("mrvd_pool_candidates_total",
		"Pooled insertion candidates evaluated (route plans priced per waiting rider).")
	s.poolFeasible = r.Counter("mrvd_pool_feasible_total",
		"Pooled insertion candidates that were feasible under capacity and detour bounds.")
	s.poolCommitted = r.Counter("mrvd_pool_committed_total",
		"Pooled insertions committed by the dispatcher.")
	shard := strconv.Itoa(cfg.Shard)
	s.queueDepth = r.GaugeVec("mrvd_queue_depth",
		"Waiting riders entering the current batch round, by shard.",
		"shard").With(shard)
	s.driversAvail = r.GaugeVec("mrvd_drivers_available",
		"Available drivers entering the current batch round, by shard.",
		"shard").With(shard)
	if cfg.Tracer != nil {
		s.spans = make(map[trace.OrderID]*spanDraft)
	}
	return s
}

// admit stamps one order's admission — Observer has no admission event
// — and starts its span's wall clock.
func (s *obsState) admit(o trace.Order, now float64) {
	if s == nil {
		return
	}
	s.admitted.Inc()
	if s.spans != nil {
		s.spans[o.ID] = &spanDraft{
			span: obs.Span{
				Order:    int64(o.ID),
				Shard:    s.cfg.Shard,
				Driver:   -1,
				SubmitAt: o.PostTime,
				AdmitAt:  now,
			},
			wallStart: time.Now(), //mrvdlint:ignore wallclock WallMS is the span schema's one documented wall-clock field
		}
	}
}

// poolSearch records one batch's insertion-search tallies.
func (s *obsState) poolSearch(candidates, feasible int) {
	if s != nil {
		s.poolCandidates.Add(int64(candidates))
		s.poolFeasible.Add(int64(feasible))
	}
}

// OnBatchStart sets the batch round's queue/fleet gauges — the
// time-series layer's raw material for queue-growth trend rules.
func (s *obsState) OnBatchStart(e BatchStartEvent) {
	s.queueDepth.Set(float64(e.Waiting))
	s.driversAvail.Set(float64(e.Available))
}

// OnAssigned records a commitment. A solo trip (no route plan) realizes
// its pickup and dropoff times at commit, so its served span is emitted
// in one shot; a plan-backed commit keeps the draft open until the
// dropoff stop completes.
func (s *obsState) OnAssigned(e AssignedEvent) {
	if e.Shared {
		s.poolCommitted.Inc()
	}
	id, solo := e.Rider.Order.ID, e.Stops == 0
	if d, ok := s.spans[id]; ok {
		d.span.CommitAt = e.Now
		d.span.Driver = int64(e.Driver)
		d.span.Shared = e.Shared
		d.committed = true
		if solo {
			d.span.PickupAt = e.Rider.PickedAt
			d.picked = true
			d.span.DropoffAt = e.FreeAt
		}
	}
	if solo {
		s.end(s.termServed, id, obs.OutcomeServed, e.FreeAt)
	}
}

// OnPickedUp records a pooled pickup stop completing.
func (s *obsState) OnPickedUp(e PickedUpEvent) {
	if d, ok := s.spans[e.Order]; ok {
		d.span.PickupAt = e.At
		d.picked = true
	}
}

// OnDroppedOff emits a pooled rider's served span at its dropoff stop.
func (s *obsState) OnDroppedOff(e DroppedOffEvent) {
	if d, ok := s.spans[e.Order]; ok {
		d.span.DropoffAt = e.At
	}
	s.end(s.termServed, e.Order, obs.OutcomeServed, e.At)
}

// OnCanceled emits a canceled span (stochastic or explicit rider
// cancel, including a pooled cancel off an active plan).
func (s *obsState) OnCanceled(e CanceledEvent) {
	s.end(s.termCanceled, e.Rider.Order.ID, obs.OutcomeCanceled, e.Now)
}

// OnExpired emits a reneged span (deadline expired unassigned).
func (s *obsState) OnExpired(e ExpiredEvent) {
	s.end(s.termReneged, e.Rider.Order.ID, obs.OutcomeReneged, e.Now)
}

// end counts one terminal outcome and, when the order has a draft,
// finalizes its durations and writes the span.
func (s *obsState) end(outcomes *obs.Counter, id trace.OrderID, outcome string, endAt float64) {
	outcomes.Inc()
	d, ok := s.spans[id]
	if !ok {
		return
	}
	sp := d.span
	sp.Outcome = outcome
	sp.EndAt = endAt
	if d.committed {
		sp.QueueSeconds = sp.CommitAt - sp.AdmitAt
		if d.picked {
			sp.PickupSeconds = sp.PickupAt - sp.CommitAt
			if sp.DropoffAt > 0 || outcome == obs.OutcomeServed {
				sp.TripSeconds = sp.DropoffAt - sp.PickupAt
			}
		}
	} else {
		sp.QueueSeconds = endAt - sp.AdmitAt
	}
	sp.WallMS = float64(time.Since(d.wallStart).Nanoseconds()) / 1e6 //mrvdlint:ignore wallclock WallMS is the span schema's one documented wall-clock field
	s.cfg.Tracer.Emit(sp)
	delete(s.spans, id)
}
