package sim

import (
	"strconv"
	"time"

	"mrvd/internal/obs"
	"mrvd/internal/trace"
)

// ObsConfig wires the optional observability layer into an engine:
// a metrics registry receiving dispatch-phase timings and lifecycle
// counters, and/or a tracer emitting one JSON span per terminal
// order. The zero value disables both and keeps the engine
// byte-identical to an uninstrumented run — the enabled path touches
// only wall-clock data that never feeds a Summary, so determinism
// contracts (Sweep, 1-shard parity) are unaffected either way.
type ObsConfig struct {
	// Registry collects counters and histograms; nil records nothing.
	Registry *obs.Registry
	// Tracer receives order-lifecycle spans; nil records nothing.
	Tracer *obs.Tracer
	// Shard attributes this engine's spans to its shard of the session
	// runtime (0 with one shard, and for a bare engine).
	Shard int
}

// Enabled reports whether any observability sink is configured.
func (c ObsConfig) Enabled() bool { return c.Registry != nil || c.Tracer != nil }

// obsState is the engine's observability machinery, nil when
// ObsConfig is zero-valued — the uninstrumented path pays one nil
// check per hook site.
type obsState struct {
	cfg ObsConfig

	// Registry-backed instruments, all resolved to concrete children at
	// construction so the per-round and per-order hot paths touch only
	// lock-free atomics, never the registry's family locks; nil when no
	// registry is configured.
	phaseAdmit     *obs.Histogram
	phaseBuild     *obs.Histogram
	phaseDispatch  *obs.Histogram
	phaseApply     *obs.Histogram
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

func newObsState(cfg ObsConfig) *obsState {
	s := &obsState{cfg: cfg}
	if r := cfg.Registry; r != nil {
		phases := r.HistogramVec("mrvd_dispatch_phase_seconds",
			"Wall time of one engine batch round, broken into admit, build (context + coster matrix), dispatch (the dispatcher's Assign) and apply phases.",
			obs.DefBuckets, "phase")
		s.phaseAdmit = phases.With("admit")
		s.phaseBuild = phases.With("build")
		s.phaseDispatch = phases.With("dispatch")
		s.phaseApply = phases.With("apply")
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
	}
	if cfg.Tracer != nil {
		s.spans = make(map[trace.OrderID]*spanDraft)
	}
	return s
}

// phase records one batch phase's wall duration.
func (s *obsState) phase(name string, seconds float64) {
	var h *obs.Histogram
	switch name {
	case "admit":
		h = s.phaseAdmit
	case "build":
		h = s.phaseBuild
	case "dispatch":
		h = s.phaseDispatch
	case "apply":
		h = s.phaseApply
	}
	if h != nil {
		h.Observe(seconds)
	}
}

// round records the batch round's queue/fleet gauges — the time-series
// layer's raw material for queue-growth trend rules.
func (s *obsState) round(waiting, available int) {
	if s.queueDepth != nil {
		s.queueDepth.Set(float64(waiting))
		s.driversAvail.Set(float64(available))
	}
}

// admit records one order's admission.
func (s *obsState) admit(o trace.Order, now float64) {
	if s.admitted != nil {
		s.admitted.Inc()
	}
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

// commit records a pooled (or plan-backed) assignment whose span
// stays open until the dropoff stop completes.
func (s *obsState) commit(id trace.OrderID, now float64, driver DriverID, shared bool) {
	if s.spans == nil {
		return
	}
	if d, ok := s.spans[id]; ok {
		d.span.CommitAt = now
		d.span.Driver = int64(driver)
		d.span.Shared = shared
		d.committed = true
	}
}

// servedSolo emits a served span in one shot: a solo commitment
// realizes its pickup and dropoff times at commit.
func (s *obsState) servedSolo(now float64, id trace.OrderID, driver DriverID, pickedAt, freeAt float64) {
	if s.termServed != nil {
		s.termServed.Inc()
	}
	if s.spans == nil {
		return
	}
	d, ok := s.spans[id]
	if !ok {
		return
	}
	d.span.CommitAt = now
	d.span.Driver = int64(driver)
	d.committed = true
	d.span.PickupAt = pickedAt
	d.picked = true
	d.span.DropoffAt = freeAt
	s.emit(id, d, obs.OutcomeServed, freeAt)
}

// pickedUp records a pooled pickup stop completing.
func (s *obsState) pickedUp(id trace.OrderID, now float64) {
	if s.spans == nil {
		return
	}
	if d, ok := s.spans[id]; ok {
		d.span.PickupAt = now
		d.picked = true
	}
}

// droppedOff emits a pooled rider's served span at its dropoff stop.
func (s *obsState) droppedOff(id trace.OrderID, now float64) {
	if s.termServed != nil {
		s.termServed.Inc()
	}
	if s.spans == nil {
		return
	}
	if d, ok := s.spans[id]; ok {
		d.span.DropoffAt = now
		s.emit(id, d, obs.OutcomeServed, now)
	}
}

// canceled emits a canceled span (stochastic or explicit rider
// cancel, including a pooled cancel off an active plan).
func (s *obsState) canceled(id trace.OrderID, now float64) {
	if s.termCanceled != nil {
		s.termCanceled.Inc()
	}
	if s.spans == nil {
		return
	}
	if d, ok := s.spans[id]; ok {
		s.emit(id, d, obs.OutcomeCanceled, now)
	}
}

// reneged emits a reneged span (deadline expired unassigned).
func (s *obsState) reneged(id trace.OrderID, now float64) {
	if s.termReneged != nil {
		s.termReneged.Inc()
	}
	if s.spans == nil {
		return
	}
	if d, ok := s.spans[id]; ok {
		s.emit(id, d, obs.OutcomeReneged, now)
	}
}

// emit finalizes durations and writes the span.
func (s *obsState) emit(id trace.OrderID, d *spanDraft, outcome string, endAt float64) {
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

// poolSearch records one batch's insertion-search tallies.
func (s *obsState) poolSearch(candidates, feasible int) {
	if s.poolCandidates != nil {
		s.poolCandidates.Add(int64(candidates))
		s.poolFeasible.Add(int64(feasible))
	}
}

// poolCommit records one committed insertion.
func (s *obsState) poolCommit() {
	if s.poolCommitted != nil {
		s.poolCommitted.Inc()
	}
}
