package sim

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/trace"
)

// poolGreedy commits every shared-ride insertion option first (one per
// rider and per plan), then falls back to takeAll's solo pairing for
// the rest — the minimal pooling-aware dispatcher the engine tests
// drive (internal/dispatch's POOL cannot be imported here: cycle).
type poolGreedy struct{}

func (poolGreedy) Name() string { return "poolGreedy" }
func (poolGreedy) Assign(ctx *Context) []Assignment {
	usedR := make(map[int32]bool)
	usedPlan := make(map[DriverID]bool)
	var out []Assignment
	for i, opt := range ctx.PoolOptions {
		if usedR[opt.R] || usedPlan[opt.Driver] {
			continue
		}
		usedR[opt.R] = true
		usedPlan[opt.Driver] = true
		out = append(out, Assignment{R: opt.R, Pool: true, Option: int32(i)})
	}
	usedD := make(map[int32]bool)
	for _, p := range ctx.Pairs {
		if usedR[p.R] || usedD[p.D] {
			continue
		}
		usedR[p.R] = true
		usedD[p.D] = true
		out = append(out, Assignment{R: p.R, D: p.D})
	}
	return out
}

// TestPoolingZeroValueByteIdentical is the pooling parity pin: a
// zero-valued pool.Config — or any capacity <= 1, detour knob set or
// not — must reproduce the pooling-free engine exactly: same Summary,
// same idle ledger, same event stream, no pooled counters.
func TestPoolingZeroValueByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 3; trial++ {
		orders, drivers := randomScenario(rng)
		run := func(pc pool.Config) (Summary, []IdleRecord, *simEventLog) {
			log := &simEventLog{}
			cfg := simpleConfig()
			cfg.Horizon = 4000
			cfg.Observer = log
			cfg.Pooling = pc
			m, err := New(cfg, orders, drivers).Run(context.Background(), takeAll{})
			if err != nil {
				t.Fatal(err)
			}
			return m.Summary(), m.IdleRecords, log
		}
		base, baseIdle, baseLog := run(pool.Config{})
		for _, pc := range []pool.Config{
			{Capacity: 1},
			{Capacity: 1, MaxDetourSeconds: 120},
			{Capacity: 0, MaxDetourSeconds: 600},
		} {
			got, gotIdle, gotLog := run(pc)
			if got != base {
				t.Fatalf("trial %d: pooling config %+v changed the summary:\n  base: %+v\n  got:  %+v",
					trial, pc, base, got)
			}
			if len(gotIdle) != len(baseIdle) {
				t.Fatalf("trial %d: idle ledger length %d, want %d", trial, len(gotIdle), len(baseIdle))
			}
			// Estimate is NaN without an estimator, so compare the
			// records field-wise with NaN-aware float equality.
			feq := func(a, b float64) bool {
				return a == b || (math.IsNaN(a) && math.IsNaN(b))
			}
			for i := range baseIdle {
				x, y := baseIdle[i], gotIdle[i]
				if x.Driver != y.Driver || x.Region != y.Region || x.RejoinAt != y.RejoinAt ||
					!feq(x.Estimate, y.Estimate) || !feq(x.Realized, y.Realized) {
					t.Fatalf("trial %d: idle ledger diverges at %d: %+v vs %+v", trial, i, x, y)
				}
			}
			diffLogs(t, baseLog, gotLog)
			if got.SharedServed != 0 || got.DetourSeconds != 0 {
				t.Fatalf("disabled pooling produced pooled counters: %+v", got)
			}
		}
	}
}

// poolRideScenario is the deterministic shared-ride instance the tests
// below build on: one driver 1km east of rider A's pickup; A rides 5km
// east, and rider B (posted just after) wants a leg that lies on A's
// committed route, so insertion is the only way to serve B — the lone
// driver is busy from the first batch on.
func poolRideScenario(dropoffB float64) ([]trace.Order, []geo.Point) {
	p0 := center()
	orders := []trace.Order{
		{ID: 0, PostTime: 1, Pickup: p0, Dropoff: offset(p0, 5000), Deadline: 300},
		{ID: 1, PostTime: 4, Pickup: offset(p0, 2000), Dropoff: offset(p0, dropoffB), Deadline: 400},
	}
	return orders, []geo.Point{offset(p0, 1000)}
}

// TestPooledInsertionServesSecondRider: the second rider is served by
// splicing into the busy driver's plan — zero extra route seconds, both
// riders complete, and the stop events interleave in route order.
func TestPooledInsertionServesSecondRider(t *testing.T) {
	orders, drivers := poolRideScenario(4000)
	log, rec := &simEventLog{}, &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = Observers{log, rec}
	cfg.Pooling = pool.Config{Capacity: 2}
	e := New(cfg, orders, drivers)
	m, err := e.Run(context.Background(), poolGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 2 || m.Reneged != 0 {
		t.Fatalf("served %d, reneged %d; want both riders served", m.Served, m.Reneged)
	}
	if m.SharedServed != 1 {
		t.Fatalf("SharedServed = %d, want 1 (rider B only; A started solo)", m.SharedServed)
	}
	// B's leg lies exactly on A's route: the realized detour is zero up
	// to coordinate rounding.
	if m.DetourSeconds > 1e-6 {
		t.Fatalf("on-the-way insertion recorded %.9fs of detour", m.DetourSeconds)
	}
	a, b := rec.rider(0), rec.rider(1)
	if a.Shared || !b.Shared {
		t.Fatalf("shared flags: A=%v B=%v, want false/true", a.Shared, b.Shared)
	}
	if b.PickedAt <= a.PickedAt {
		t.Fatalf("B picked up at %.1f, before A at %.1f", b.PickedAt, a.PickedAt)
	}
	if d := e.Drivers()[0]; d.Served != 2 {
		t.Fatalf("driver served %d trips, want 2", d.Served)
	}
	// Stop completions in route order: pickup A, pickup B, dropoff B,
	// dropoff A (B's leg nests inside A's trip).
	var stops []string
	for _, line := range log.entries {
		if strings.HasPrefix(line, "pickup") || strings.HasPrefix(line, "dropoff") {
			stops = append(stops, line[:strings.Index(line, " t=")])
		}
	}
	want := []string{"pickup o=0 d=0", "pickup o=1 d=0", "dropoff o=1 d=0", "dropoff o=0 d=0"}
	if len(stops) != len(want) {
		t.Fatalf("stop events %v, want %v", stops, want)
	}
	for i := range want {
		if stops[i] != want[i] {
			t.Fatalf("stop event %d = %q, want %q", i, stops[i], want[i])
		}
	}
	checkRunInvariants(t, e, m, rec)
}

// TestPooledCancelReleasesOnlyTheirStops: an assigned pooled rider who
// cancels before pickup leaves the other rider's committed stops (and
// the front leg) untouched, rolls the commit's accounting back, and
// pulls the driver's completion back in; an onboard rider's cancel is
// rejected outright.
func TestPooledCancelReleasesOnlyTheirStops(t *testing.T) {
	// B's dropoff lies past A's, so the insertion appends it and extends
	// the driver's completion — the cancel then has a real tail to trim.
	orders, drivers := poolRideScenario(6000)
	src := NewChannelSource()
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	cfg.Pooling = pool.Config{Capacity: 2}
	e := NewWithSource(cfg, src, drivers)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, o := range orders {
		if err := src.Submit(o); err != nil {
			t.Fatal(err)
		}
	}
	stepEngine(t, e, poolGreedy{}, 0, 9, 3)

	a, b := rec.rider(0), rec.rider(1)
	if a == nil || b == nil {
		t.Fatalf("setup: terminal events %v, want A and B assigned", rec.ends)
	}
	if a.Status != AssignedStatus || b.Status != AssignedStatus || !b.Shared {
		t.Fatalf("setup: statuses A=%d B=%d shared=%v, want both assigned, B shared", a.Status, b.Status, b.Shared)
	}
	d := &e.Drivers()[0]
	extendedFreeAt := d.FreeAt
	p := e.ps.plans[0]
	if len(p.Stops) != 4 {
		t.Fatalf("setup: plan has %d stops, want 4", len(p.Stops))
	}
	soloEnd := p.Stops[2].ETA // A's dropoff: the pre-insertion completion
	if extendedFreeAt <= soloEnd {
		t.Fatalf("setup: insertion did not extend the completion (%.1f <= %.1f)", extendedFreeAt, soloEnd)
	}

	// B cancels before pickup: only B's stops leave the plan.
	src.Cancel(1)
	stepEngine(t, e, poolGreedy{}, 9, 12, 3)
	if b.Status != CanceledStatus {
		t.Fatalf("B status %d after cancel, want canceled", b.Status)
	}
	if len(p.Stops) != 2 || p.Stops[0].Order != 0 || p.Stops[1].Order != 0 {
		t.Fatalf("plan after cancel: %+v, want A's two stops", p.Stops)
	}
	if math.Abs(p.Stops[1].ETA-soloEnd) > 1e-9 {
		t.Fatalf("A's dropoff retimed by B's cancel: %.6f, want %.6f", p.Stops[1].ETA, soloEnd)
	}
	if math.Abs(d.FreeAt-soloEnd) > 1e-9 {
		t.Fatalf("driver completion not pulled back: %.6f, want %.6f", d.FreeAt, soloEnd)
	}
	if e.metrics.Served != 1 || d.Served != 1 {
		t.Fatalf("accounting not rolled back: served=%d driver=%d, want 1/1", e.metrics.Served, d.Served)
	}
	if math.Abs(e.metrics.Revenue-a.TripCost) > 1e-6 {
		t.Fatalf("revenue %.9f after rollback, want A's trip %.9f", e.metrics.Revenue, a.TripCost)
	}

	// Past A's pickup the rider is onboard: the cancel is dropped and
	// the trip completes.
	stepEngine(t, e, poolGreedy{}, 12, 120, 3)
	if p.Onboard != 1 {
		t.Fatalf("A not onboard at t=120 (pickup ETA ~91): onboard=%d", p.Onboard)
	}
	src.Cancel(0)
	stepEngine(t, e, poolGreedy{}, 120, 129, 3)
	if a.Status != AssignedStatus {
		t.Fatalf("onboard rider's cancel accepted: status %d", a.Status)
	}
	src.Close()
	stepEngine(t, e, poolGreedy{}, 129, 600, 3)
	m := e.Finish()
	if m.Served != 1 || m.Canceled != 1 || m.SharedServed != 0 {
		t.Fatalf("final served=%d canceled=%d shared=%d, want 1/1/0", m.Served, m.Canceled, m.SharedServed)
	}
	if rec.canceled != 1 {
		t.Fatalf("observer saw %d cancels, want 1", rec.canceled)
	}
	checkRunInvariants(t, e, m, rec)
}

// TestCancelHeavyPooledSessionIndexesOnlyWaiting: in a pooled session
// where every third order is canceled while the source still holds it,
// every third 20 s after posting (waiting, or on a plan before pickup)
// and a scenario hazard cancels more, byID indexes exactly the waiting
// riders after every batch: assignments, reneges and both kinds of
// cancel take a rider out of it. Every order still reaches exactly one
// terminal event.
func TestCancelHeavyPooledSessionIndexesOnlyWaiting(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 4; trial++ {
		orders, drivers := randomScenario(rng)
		src := NewChannelSource()
		rec := &recordingObserver{}
		cfg := simpleConfig()
		cfg.Horizon = 4000
		cfg.Observer = rec
		cfg.Pooling = pool.Config{Capacity: 3, MaxDetourSeconds: 400}
		cfg.Scenario = ScenarioConfig{CancelRate: 0.2, Seed: int64(trial)}
		e := NewWithSource(cfg, src, drivers)
		if err := e.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, o := range orders {
			if err := src.Submit(o); err != nil {
				t.Fatal(err)
			}
			if o.ID%3 == 0 {
				src.Cancel(o.ID)
			}
		}
		src.Close()
		for now := 0.0; now < cfg.Horizon; now += cfg.Delta {
			for _, o := range orders {
				if at := o.PostTime + 20; o.ID%3 == 1 && at > now-cfg.Delta && at <= now {
					src.Cancel(o.ID)
				}
			}
			e.StepAdmit(now)
			if err := e.StepDispatch(now, poolGreedy{}); err != nil {
				t.Fatal(err)
			}
			if len(e.byID) != len(e.waiting) {
				t.Fatalf("trial %d t=%v: byID holds %d riders, %d wait", trial, now, len(e.byID), len(e.waiting))
			}
			for _, r := range e.waiting {
				if e.byID[r.Order.ID] != r {
					t.Fatalf("trial %d t=%v: waiting order %d not indexed", trial, now, r.Order.ID)
				}
			}
		}
		m := e.Finish()
		if m.Canceled == 0 || rec.assigned == m.Served {
			t.Fatalf("trial %d: %d canceled, %d of %d assignments rolled back; want cancels off plans too",
				trial, m.Canceled, rec.assigned-m.Served, rec.assigned)
		}
		checkRunInvariants(t, e, m, rec)
	}
}

// TestPooledInsertionDeclineReleasesWholeInsertion: a driver declining
// a shared-ride insertion keeps their committed plan running untouched,
// the rider keeps waiting, and after the cooldown the insertion is
// re-offered and served.
func TestPooledInsertionDeclineReleasesWholeInsertion(t *testing.T) {
	// Find a seed whose first three draws go accept (A's solo commit),
	// decline (B's insertion), accept (B's retry) — same technique as
	// TestScenarioDeclineThenServe.
	const prob = 0.5
	seed := int64(-1)
	for s := int64(0); s < 1000; s++ {
		r := rand.New(rand.NewSource(s))
		if r.Float64() >= prob && r.Float64() < prob && r.Float64() >= prob {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with accept/decline/accept draws in 1000 tries")
	}

	orders, drivers := poolRideScenario(4000)
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	cfg.Pooling = pool.Config{Capacity: 2}
	cfg.Scenario = ScenarioConfig{DeclineProb: prob, DeclineCooldown: 30, Seed: seed}
	e := New(cfg, orders, drivers)
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	// t=3: A admitted and committed (draw 1 accepts). t=6: B's insertion
	// offered and declined (draw 2).
	stepEngine(t, e, poolGreedy{}, 0, 9, 3)
	if len(e.waiting) != 1 || e.waiting[0].Order.ID != 1 {
		t.Fatalf("declined insertion did not release the rider: %d waiting", len(e.waiting))
	}
	b := e.waiting[0]
	if b.Status != WaitingStatus {
		t.Fatalf("declined insertion did not release the rider: status %d", b.Status)
	}
	if e.metrics.Declines != 1 || rec.declined != 1 {
		t.Fatalf("declines = %d (observer %d), want 1", e.metrics.Declines, rec.declined)
	}
	p := e.ps.plans[0]
	if len(p.Stops) != 2 {
		t.Fatalf("declined insertion mutated the plan: %d stops, want 2", len(p.Stops))
	}
	if until := e.ps.noInsertUntil[0]; until != 36 {
		t.Fatalf("insertion cooldown until %.1f, want 36 (decline at t=6 + 30s)", until)
	}
	// During the cooldown no option is offered; after it the insertion
	// is re-priced and draw 3 accepts.
	stepEngine(t, e, poolGreedy{}, 9, 36, 3)
	if b.Status != WaitingStatus || e.metrics.Declines != 1 {
		t.Fatalf("cooldown violated: status=%d declines=%d", b.Status, e.metrics.Declines)
	}
	stepEngine(t, e, poolGreedy{}, 36, 42, 3)
	if b.Status != AssignedStatus || !b.Shared {
		t.Fatalf("retry after cooldown not committed: status=%d shared=%v", b.Status, b.Shared)
	}
	m := e.Finish()
	if m.Served != 2 || m.Declines != 1 {
		t.Fatalf("final served=%d declines=%d, want 2/1", m.Served, m.Declines)
	}
}

// TestPooledSaturatedPeakServesMore: under a saturated burst (one batch
// of co-located demand, far more riders than drivers) enabling pooling
// strictly increases served orders per driver while every realized
// detour respects the bound — the capacity win the subsystem exists
// for.
func TestPooledSaturatedPeakServesMore(t *testing.T) {
	// 40 riders along one eastbound corridor, 4 drivers: solo dispatch
	// can serve at most a handful before deadlines pass.
	p0 := center()
	rng := rand.New(rand.NewSource(7))
	var orders []trace.Order
	for i := 0; i < 40; i++ {
		start := rng.Float64() * 3000
		length := 1000 + rng.Float64()*3000
		post := rng.Float64() * 60
		orders = append(orders, trace.Order{
			ID:       trace.OrderID(i),
			PostTime: post,
			Pickup:   offset(p0, start),
			Dropoff:  offset(p0, start+length),
			Deadline: post + 240 + rng.Float64()*120,
		})
	}
	drivers := []geo.Point{p0, offset(p0, 1000), offset(p0, 2000), offset(p0, 3000)}

	const maxDetour = 240.0
	run := func(pc pool.Config) (*Metrics, []float64) {
		var detours []float64
		obs := ObserverFuncs{
			DroppedOff: func(e DroppedOffEvent) {
				if e.Shared {
					detours = append(detours, e.DetourSeconds)
				}
			},
		}
		cfg := simpleConfig()
		cfg.Horizon = 4000
		cfg.Observer = obs
		cfg.Pooling = pc
		m, err := New(cfg, orders, drivers).Run(context.Background(), poolGreedy{})
		if err != nil {
			t.Fatal(err)
		}
		return m, detours
	}

	solo, _ := run(pool.Config{})
	pooled, detours := run(pool.Config{Capacity: 3, MaxDetourSeconds: maxDetour})
	if pooled.Served <= solo.Served {
		t.Fatalf("pooling did not raise throughput: served %d pooled vs %d solo", pooled.Served, solo.Served)
	}
	if pooled.SharedServed == 0 || len(detours) != pooled.SharedServed {
		t.Fatalf("shared trips %d, detour samples %d", pooled.SharedServed, len(detours))
	}
	for _, d := range detours {
		if d > maxDetour+1e-9 {
			t.Fatalf("realized detour %.3fs exceeds the %.0fs bound", d, maxDetour)
		}
	}
	t.Logf("peak burst: solo served %d, pooled served %d (%d shared, mean detour %.1fs)",
		solo.Served, pooled.Served, pooled.SharedServed, pooled.DetourSeconds/float64(pooled.SharedServed))
}
