package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// simEventLog records a scalar projection of every observer event so two
// runs can be compared stream-for-stream.
type simEventLog struct {
	entries []string
}

func (l *simEventLog) OnBatchStart(e BatchStartEvent) {
	l.entries = append(l.entries, fmt.Sprintf("batch %d t=%.0f w=%d a=%d", e.Batch, e.Now, e.Waiting, e.Available))
}
func (l *simEventLog) OnAssigned(e AssignedEvent) {
	l.entries = append(l.entries, fmt.Sprintf("assign o=%d d=%d t=%.0f pc=%.6f rev=%.6f free=%.6f",
		e.Rider.Order.ID, e.Driver, e.Now, e.PickupCost, e.Revenue, e.FreeAt))
}
func (l *simEventLog) OnExpired(e ExpiredEvent) {
	l.entries = append(l.entries, fmt.Sprintf("expire o=%d t=%.0f", e.Rider.Order.ID, e.Now))
}
func (l *simEventLog) OnCanceled(e CanceledEvent) {
	l.entries = append(l.entries, fmt.Sprintf("cancel o=%d t=%.0f explicit=%v", e.Rider.Order.ID, e.Now, e.Explicit))
}
func (l *simEventLog) OnDeclined(e DeclinedEvent) {
	l.entries = append(l.entries, fmt.Sprintf("decline o=%d d=%d t=%.0f retry=%.0f", e.Rider.Order.ID, e.Driver, e.Now, e.RetryAt))
}
func (l *simEventLog) OnRepositioned(e RepositionedEvent) {
	l.entries = append(l.entries, fmt.Sprintf("repos d=%d t=%.0f", e.Driver, e.Now))
}
func (l *simEventLog) OnPickedUp(e PickedUpEvent) {
	l.entries = append(l.entries, fmt.Sprintf("pickup o=%d d=%d t=%.0f", e.Order, e.Driver, e.Now))
}
func (l *simEventLog) OnDroppedOff(e DroppedOffEvent) {
	l.entries = append(l.entries, fmt.Sprintf("dropoff o=%d d=%d t=%.0f shared=%v", e.Order, e.Driver, e.Now, e.Shared))
}

func diffLogs(t *testing.T, a, b *simEventLog) {
	t.Helper()
	for i := range a.entries {
		if i >= len(b.entries) || a.entries[i] != b.entries[i] {
			t.Fatalf("event streams diverge at %d:\n  a: %s\n  b: %s", i, a.entries[i], b.entries[i])
		}
	}
	if len(a.entries) != len(b.entries) {
		t.Fatalf("event stream lengths differ: %d vs %d", len(a.entries), len(b.entries))
	}
}

// TestScenarioZeroValueByteIdentical is the parity contract of the
// disruption layer: a config whose ScenarioConfig is zero-valued (even
// with a seed set — only the disruption knobs count) must reproduce the
// scenario-free engine exactly: same Summary, same idle ledger, same
// event stream, and no disruption counters.
func TestScenarioZeroValueByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		orders, drivers := randomScenario(rng)

		baseLog := &simEventLog{}
		baseCfg := simpleConfig()
		baseCfg.Horizon = 4000
		baseCfg.Observer = baseLog
		base, err := New(baseCfg, orders, drivers).Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatal(err)
		}

		zeroLog := &simEventLog{}
		zeroCfg := simpleConfig()
		zeroCfg.Horizon = 4000
		zeroCfg.Observer = zeroLog
		zeroCfg.Scenario = ScenarioConfig{Seed: 12345} // zero knobs, non-zero seed
		zero, err := New(zeroCfg, orders, drivers).Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatal(err)
		}

		if base.Summary() != zero.Summary() {
			t.Fatalf("trial %d: zero-valued scenario changed the summary:\n  base: %+v\n  zero: %+v",
				trial, base.Summary(), zero.Summary())
		}
		diffLogs(t, baseLog, zeroLog)
		if zero.Canceled != 0 || zero.Declines != 0 || len(zero.TravelRecords) != 0 {
			t.Fatalf("zero-valued scenario produced disruptions: %+v", zero.Summary())
		}
	}
}

// TestScenarioRiderCancellations: with CancelRate 1 every order with
// positive slack abandons strictly before its deadline, so under a noop
// dispatcher the whole trace cancels and nothing ever expires.
func TestScenarioRiderCancellations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orders, drivers := randomScenario(rng)
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Horizon = 4000
	cfg.Observer = rec
	cfg.Scenario = ScenarioConfig{CancelRate: 1, Seed: 5}
	e := New(cfg, orders, drivers)
	m, err := e.Run(context.Background(), noop{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Canceled != m.TotalOrders || m.Reneged != 0 || m.Served != 0 {
		t.Fatalf("CancelRate=1 under noop: canceled=%d reneged=%d served=%d total=%d",
			m.Canceled, m.Reneged, m.Served, m.TotalOrders)
	}
	if rec.canceled != m.Canceled {
		t.Fatalf("observer saw %d cancels, metrics say %d", rec.canceled, m.Canceled)
	}
	for _, end := range rec.ends {
		r := end.rider
		if r.Status != CanceledStatus {
			t.Fatalf("rider %d status %d, want canceled", r.Order.ID, r.Status)
		}
		if r.CancelAt <= 0 || r.CancelAt >= r.Order.Deadline {
			t.Fatalf("rider %d cancel time %v outside [post, deadline) of (%v, %v)",
				r.Order.ID, r.CancelAt, r.Order.PostTime, r.Order.Deadline)
		}
	}
	checkRunInvariants(t, e, m, rec)
}

// TestScenarioCancellationsAreSeeded: equal seeds disrupt identically,
// different seeds differently.
func TestScenarioCancellationsAreSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	orders, drivers := randomScenario(rng)
	run := func(seed int64) Summary {
		cfg := simpleConfig()
		cfg.Horizon = 4000
		cfg.Scenario = ScenarioConfig{CancelRate: 0.5, Seed: seed}
		m, err := New(cfg, orders, drivers).Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Summary()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("same scenario seed produced different runs:\n  %+v\n  %+v", a, b)
	}
	if c := run(2); c == a && c.Canceled == a.Canceled {
		t.Logf("warning: different scenario seeds coincided: %+v", c)
	}
	if a.Canceled == 0 {
		t.Fatal("CancelRate=0.5 canceled nothing")
	}
}

// stepEngine drives one engine batch-by-batch so tests can interleave
// source operations with the batch loop deterministically.
func stepEngine(t *testing.T, e *Engine, d Dispatcher, from, to, delta float64) {
	t.Helper()
	for now := from; now < to; now += delta {
		e.StepAdmit(now)
		if err := e.StepDispatch(now, d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScenarioExplicitCancelLifecycle covers the CancelableSource path:
// a cancel for a waiting rider applies at the next batch; a cancel
// submitted before the order is released is held by the source and
// applied in the batch that admits it; a cancel after assignment is
// dropped; and a cancel for an id the open session never received is
// dropped in its batch, held by neither the source nor the engine.
func TestScenarioExplicitCancelLifecycle(t *testing.T) {
	pickup := center()
	src := NewChannelSource()
	cfg := simpleConfig()
	rec := &recordingObserver{}
	cfg.Observer = rec
	// Driver 10km away: nobody can serve within 200s, so the rider
	// stays waiting until we cancel.
	e := NewWithSource(cfg, src, []geo.Point{offset(pickup, 10000)})
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}

	waiting := trace.Order{ID: 1, PostTime: 0, Pickup: pickup, Dropoff: offset(pickup, 2000), Deadline: 3000}
	if err := src.Submit(waiting); err != nil {
		t.Fatal(err)
	}
	stepEngine(t, e, noop{}, 0, 30, 3)

	// (1) Cancel the waiting rider: applied at the next StepAdmit.
	src.Cancel(1)
	stepEngine(t, e, noop{}, 30, 36, 3)
	if r := rec.rider(1); r == nil || r.Status != CanceledStatus || len(e.waiting) != 0 {
		t.Fatalf("waiting rider not canceled: ends %v, %d still waiting", rec.ends, len(e.waiting))
	}
	if rec.canceled != 1 {
		t.Fatalf("observer saw %d cancels, want 1", rec.canceled)
	}

	// (2) Cancel an order the engine has not admitted yet (posted in
	// the future): held, then applied the batch the order arrives.
	future := trace.Order{ID: 2, PostTime: 60, Pickup: pickup, Dropoff: offset(pickup, 2000), Deadline: 3000}
	if err := src.Submit(future); err != nil {
		t.Fatal(err)
	}
	src.Cancel(2)
	stepEngine(t, e, noop{}, 36, 48, 3) // order not yet released
	if len(e.waiting) != 0 || src.Pending() != 1 || rec.canceled != 1 {
		t.Fatalf("future order admitted or canceled early: %d waiting, %d held, %d canceled",
			len(e.waiting), src.Pending(), rec.canceled)
	}
	stepEngine(t, e, noop{}, 48, 72, 3) // releases at t=60, cancel applies
	if r := rec.rider(2); r == nil || r.Status != CanceledStatus {
		t.Fatalf("held cancel not applied on admission: ends %v", rec.ends)
	}

	// (3) A cancel racing an assignment loses: the order completes.
	served := trace.Order{ID: 3, PostTime: 80, Pickup: offset(pickup, 9990), Dropoff: offset(pickup, 8000), Deadline: 3000}
	if err := src.Submit(served); err != nil {
		t.Fatal(err)
	}
	stepEngine(t, e, takeAll{}, 72, 90, 3) // driver is ~10m away: assigned
	if r := rec.rider(3); r == nil || r.Status != AssignedStatus {
		t.Fatalf("setup: rider 3 not assigned: ends %v", rec.ends)
	}
	src.Cancel(3)
	stepEngine(t, e, noop{}, 90, 99, 3)
	if r := rec.rider(3); r.Status != AssignedStatus || rec.ends[3].as != AssignedStatus {
		t.Fatalf("cancel overrode an assignment: status %d", r.Status)
	}

	// (4) A cancel for an id the open session never received is dropped
	// in its batch: the source stages it, the engine holds no rider for
	// it, and neither keeps it.
	src.Cancel(99)
	stepEngine(t, e, noop{}, 99, 102, 3)
	if len(src.cancels) != 0 || len(src.heap) != 0 || len(e.byID) != 0 {
		t.Fatalf("unknown cancel kept: source %v, %d held orders, engine %d riders by id",
			src.cancels, len(src.heap), len(e.byID))
	}
	m := e.Finish()
	if m.Canceled != 2 || rec.canceled != 2 {
		t.Fatalf("canceled=%d observer=%d, want 2", m.Canceled, rec.canceled)
	}
}

// TestScenarioDriverDeclinesEveryTime: with DeclineProb 1 a feasible
// rider is declined batch after batch — the driver cools down between
// attempts — until the deadline passes. The rider's deadline never
// moves and the driver never serves.
func TestScenarioDriverDeclinesEveryTime(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 1, Pickup: pickup,
		Dropoff: offset(pickup, 2000), Deadline: 200,
	}}
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	cfg.Scenario = ScenarioConfig{DeclineProb: 1, DeclineCooldown: 30, Seed: 3}
	e := New(cfg, orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Reneged != 1 {
		t.Fatalf("DeclineProb=1: served=%d reneged=%d, want 0/1", m.Served, m.Reneged)
	}
	// ~200s of patience at a 30s cooldown: several decline rounds.
	if m.Declines < 2 {
		t.Fatalf("declines = %d, want >= 2 (cooldown then retry)", m.Declines)
	}
	if rec.declined != m.Declines {
		t.Fatalf("observer saw %d declines, metrics say %d", rec.declined, m.Declines)
	}
	if e.Drivers()[0].Served != 0 {
		t.Fatal("declining driver recorded a served trip")
	}
	checkRunInvariants(t, e, m, rec)
}

// TestScenarioDeclineThenServe: a decline returns the rider to the pool
// and a later batch serves it — the re-dispatch path. The seed is
// chosen at runtime so the first decline draw rejects and the second
// accepts, keeping the test deterministic without pinning Go's RNG
// internals.
func TestScenarioDeclineThenServe(t *testing.T) {
	const p = 0.5
	seed := int64(-1)
	for s := int64(0); s < 1000; s++ {
		r := rand.New(rand.NewSource(s))
		if r.Float64() < p && r.Float64() >= p {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with decline-then-accept draws in 1000 tries")
	}
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 1, Pickup: pickup,
		Dropoff: offset(pickup, 2000), Deadline: 400,
	}}
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	cfg.Scenario = ScenarioConfig{DeclineProb: p, DeclineCooldown: 30, Seed: seed}
	e := New(cfg, orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Declines != 1 || m.Served != 1 {
		t.Fatalf("declines=%d served=%d, want 1/1 (decline, cooldown, re-dispatch)", m.Declines, m.Served)
	}
	// The retry had to wait out the cooldown: assignment at least 30s
	// after the decline.
	r := rec.rider(0)
	if r.Status != AssignedStatus {
		t.Fatalf("rider status %d, want assigned", r.Status)
	}
	if r.Order.Deadline != 400 {
		t.Fatalf("decline moved the deadline: %v", r.Order.Deadline)
	}
	checkRunInvariants(t, e, m, rec)
}

// TestScenarioTravelNoise: dispatch plans on estimates, commits realize
// noisy durations, and the error ledger reconciles the two exactly.
func TestScenarioTravelNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	orders, drivers := randomScenario(rng)
	cfg := simpleConfig()
	cfg.Horizon = 4000
	cfg.Scenario = ScenarioConfig{TravelNoise: 0.3, Seed: 9}
	ended := &recordingObserver{}
	cfg.Observer = ended
	e := New(cfg, orders, drivers)
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served == 0 {
		t.Fatal("nothing served")
	}
	if len(m.TravelRecords) != m.Served {
		t.Fatalf("%d travel records for %d served", len(m.TravelRecords), m.Served)
	}
	revenue, pickups, perturbed := 0.0, 0.0, false
	byOrder := make(map[trace.OrderID]TravelRecord)
	for _, rec := range m.TravelRecords {
		revenue += rec.TripRealized
		pickups += rec.PickupRealized
		if rec.TripRealized != rec.TripEstimate {
			perturbed = true
		}
		if rec.PickupRealized <= 0 || rec.TripRealized <= 0 {
			t.Fatalf("non-positive realized duration: %+v", rec)
		}
		byOrder[rec.Order] = rec
	}
	if !perturbed {
		t.Fatal("TravelNoise=0.3 perturbed nothing")
	}
	if math.Abs(revenue-m.Revenue) > 1e-6 {
		t.Fatalf("revenue %v != sum of realized trips %v", m.Revenue, revenue)
	}
	if math.Abs(pickups-m.PickupSeconds) > 1e-6 {
		t.Fatalf("pickup seconds %v != sum of realized pickups %v", m.PickupSeconds, pickups)
	}
	// Rider and driver state reflect realized times, and the estimates
	// in the ledger are the planner's (the rider's precomputed trip
	// cost).
	for _, end := range ended.ends {
		r := end.rider
		if r.Status != AssignedStatus {
			continue
		}
		rec, ok := byOrder[r.Order.ID]
		if !ok {
			t.Fatalf("served order %d missing from the travel ledger", r.Order.ID)
		}
		if rec.TripEstimate != r.TripCost {
			t.Fatalf("order %d: ledger estimate %v != planned trip cost %v", r.Order.ID, rec.TripEstimate, r.TripCost)
		}
		if got := rec.At + rec.PickupRealized; math.Abs(got-r.PickedAt) > 1e-9 {
			t.Fatalf("order %d: PickedAt %v != assignment time + realized pickup %v", r.Order.ID, r.PickedAt, got)
		}
	}
	if s := m.Summary(); s.TravelSamples != m.Served || s.MeanAbsTravelErrorSeconds() <= 0 {
		t.Fatalf("summary travel stats inconsistent: %+v", s)
	}
}

// TestScenarioTravelNoisePlansOnEstimates pins that noise never changes
// what the first batch decides — only what the commit realizes.
func TestScenarioTravelNoisePlansOnEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	orders, drivers := randomScenario(rng)
	firstAssign := func(noise float64) string {
		log := &simEventLog{}
		cfg := simpleConfig()
		cfg.Horizon = 4000
		cfg.Observer = log
		cfg.Scenario = ScenarioConfig{TravelNoise: noise, Seed: 9}
		if _, err := New(cfg, orders, drivers).Run(context.Background(), takeAll{}); err != nil {
			t.Fatal(err)
		}
		for _, e := range log.entries {
			if len(e) > 6 && e[:6] == "assign" {
				return e[:20] // order + driver prefix; costs differ under noise
			}
		}
		return ""
	}
	clean := firstAssign(0)
	noisy := firstAssign(0.3)
	if clean == "" || clean[:14] != noisy[:14] {
		t.Fatalf("first assignment differs under noise: %q vs %q", clean, noisy)
	}
}

// TestApplyCompactionPreservesWaitingOrder pins the mark-and-compact
// rewrite of apply(): removing assigned riders must keep the remaining
// waiting set in admission order, since batch construction (and hence
// every downstream decision) iterates it.
func TestApplyCompactionPreservesWaitingOrder(t *testing.T) {
	pickup := center()
	var orders []trace.Order
	for i := 0; i < 8; i++ {
		orders = append(orders, trace.Order{
			ID: trace.OrderID(i), PostTime: 1,
			Pickup:  offset(pickup, float64(i*100)),
			Dropoff: offset(pickup, 3000), Deadline: 3000,
		})
	}
	// Two drivers: the dispatcher assigns riders 2 and 5, so waiting
	// must become [0 1 3 4 6 7] in that order.
	e := New(simpleConfig(), orders, []geo.Point{pickup, offset(pickup, 200)})
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	e.StepAdmit(3)
	err := e.StepDispatch(3, funcDispatcher(func(ctx *Context) []Assignment {
		var out []Assignment
		for _, p := range ctx.Pairs {
			if (p.R == 2 && p.D == 0) || (p.R == 5 && p.D == 1) {
				out = append(out, Assignment{R: p.R, D: p.D})
			}
		}
		return out
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.OrderID{0, 1, 3, 4, 6, 7}
	if len(e.waiting) != len(want) {
		t.Fatalf("waiting has %d riders, want %d", len(e.waiting), len(want))
	}
	for i, r := range e.waiting {
		if r.Order.ID != want[i] {
			t.Fatalf("waiting[%d] = order %d, want %d (order not preserved)", i, r.Order.ID, want[i])
		}
	}
}
