package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// randomScenario builds a random but structurally valid trace and fleet.
func randomScenario(rng *rand.Rand) ([]trace.Order, []geo.Point) {
	box := geo.NYCBBox
	randPoint := func() geo.Point {
		return geo.Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		}
	}
	n := 20 + rng.Intn(80)
	orders := make([]trace.Order, n)
	for i := range orders {
		post := rng.Float64() * 3000
		orders[i] = trace.Order{
			ID:       trace.OrderID(i),
			PostTime: post,
			Pickup:   randPoint(),
			Dropoff:  randPoint(),
			Deadline: post + 30 + rng.Float64()*300,
		}
	}
	drivers := make([]geo.Point, 3+rng.Intn(20))
	for i := range drivers {
		drivers[i] = randPoint()
	}
	return orders, drivers
}

// checkRunInvariants verifies the engine's global invariants after a
// run whose terminal events rec folded (cfg.Observer, alone or in an
// Observers chain): every order reaches exactly one terminal event and
// the fold agrees with the metrics.
func checkRunInvariants(t *testing.T, e *Engine, m *Metrics, rec *recordingObserver) {
	t.Helper()
	// Terminal accounting.
	if m.Served+m.Reneged+m.Canceled != m.TotalOrders {
		t.Fatalf("served %d + reneged %d + canceled %d != total %d",
			m.Served, m.Reneged, m.Canceled, m.TotalOrders)
	}
	if len(rec.twice) > 0 {
		t.Fatalf("orders %v reached a second terminal event", rec.twice)
	}
	if len(rec.ends) != m.TotalOrders {
		t.Fatalf("%d orders reached a terminal event, want all %d", len(rec.ends), m.TotalOrders)
	}
	if len(e.waiting) != 0 {
		t.Fatalf("rider %d still waiting after the horizon", e.waiting[0].Order.ID)
	}
	// Travel noise decouples realized times from the planned estimates:
	// revenue then sums realized trips and a committed pickup may land
	// past the deadline (the late-pickup risk the scenario models), so
	// those two checks only hold noise-free.
	noisy := len(m.TravelRecords) > 0
	// Revenue equals the sum of served trip costs, and every served
	// rider was picked up before its deadline.
	revenue := 0.0
	count := make(map[RiderStatus]int)
	for id, end := range rec.ends {
		r := end.rider
		if r.Status != end.as {
			t.Fatalf("order %d ended with status %d, rider now has %d", id, end.as, r.Status)
		}
		count[end.as]++
		if end.as != AssignedStatus {
			continue
		}
		revenue += r.TripCost
		if !noisy && r.PickedAt > r.Order.Deadline+1e-9 {
			t.Fatalf("rider %d picked at %.1f after deadline %.1f",
				r.Order.ID, r.PickedAt, r.Order.Deadline)
		}
		if r.PickedAt < r.Order.PostTime {
			t.Fatalf("rider %d picked before posting", r.Order.ID)
		}
	}
	if count[AssignedStatus] != m.Served || count[CanceledStatus] != m.Canceled || count[RenegedStatus] != m.Reneged {
		t.Fatalf("terminal events count %d served, %d canceled, %d reneged; metrics say %d, %d, %d",
			count[AssignedStatus], count[CanceledStatus], count[RenegedStatus], m.Served, m.Canceled, m.Reneged)
	}
	if !noisy && math.Abs(revenue-m.Revenue) > 1e-6 {
		t.Fatalf("revenue %v != sum of served trips %v", m.Revenue, revenue)
	}
	// Per-driver service counts sum to the served total.
	driverServed := 0
	for _, d := range e.Drivers() {
		driverServed += d.Served
	}
	if driverServed != m.Served {
		t.Fatalf("driver ledger %d != served %d", driverServed, m.Served)
	}
	// Idle records are non-negative and closed.
	for _, rec := range m.IdleRecords {
		if math.IsNaN(rec.Realized) || rec.Realized < -1e-9 {
			t.Fatalf("bad idle record %+v", rec)
		}
	}
}

func TestSimulationInvariantsUnderRandomScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		orders, drivers := randomScenario(rng)
		rec := &recordingObserver{}
		cfg := Config{Delta: 5, TC: 600, Horizon: 4000, Observer: rec}
		e := New(cfg, orders, drivers)
		m, err := e.Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRunInvariants(t, e, m, rec)
	}
}

func TestSimulationInvariantsWithRepositioning(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		orders, drivers := randomScenario(rng)
		rec := &recordingObserver{}
		cfg := Config{
			Delta: 5, TC: 600, Horizon: 4000,
			Repositioner:    randomRepositioner{rng: rand.New(rand.NewSource(int64(trial)))},
			RepositionAfter: 120,
			Observer:        rec,
		}
		e := New(cfg, orders, drivers)
		m, err := e.Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRunInvariants(t, e, m, rec)
	}
}

// randomRepositioner occasionally proposes a random nearby move.
type randomRepositioner struct{ rng *rand.Rand }

func (r randomRepositioner) Target(ctx *Context, d *Driver, region geo.RegionID) (geo.Point, bool) {
	if r.rng.Float64() < 0.7 {
		return geo.Point{}, false
	}
	return geo.Point{
		Lng: d.Pos.Lng + (r.rng.Float64()-0.5)*0.02,
		Lat: d.Pos.Lat + (r.rng.Float64()-0.5)*0.02,
	}, true
}

func TestSimulationInvariantsAcrossDispatcherStyles(t *testing.T) {
	// The engine's invariants must hold regardless of dispatcher
	// behaviour: empty, greedy, or adversarially partial.
	rng := rand.New(rand.NewSource(23))
	orders, drivers := randomScenario(rng)
	dispatchers := []Dispatcher{
		noop{},
		takeAll{},
		funcDispatcher(func(ctx *Context) []Assignment {
			// Serve only every other batch.
			if int(ctx.Now/5)%2 == 0 || len(ctx.Pairs) == 0 {
				return nil
			}
			p := ctx.Pairs[0]
			return []Assignment{{R: p.R, D: p.D}}
		}),
	}
	for i, d := range dispatchers {
		rec := &recordingObserver{}
		e := New(Config{Delta: 5, TC: 600, Horizon: 4000, Observer: rec}, orders, drivers)
		m, err := e.Run(context.Background(), d)
		if err != nil {
			t.Fatalf("dispatcher %d: %v", i, err)
		}
		checkRunInvariants(t, e, m, rec)
	}
}
