package sim

import (
	"context"
	"math"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

// takeAll assigns every rider its first (nearest) valid pair, first-fit.
type takeAll struct{}

func (takeAll) Name() string { return "takeAll" }
func (takeAll) Assign(ctx *Context) []Assignment {
	usedD := make(map[int32]bool)
	var out []Assignment
	for _, p := range ctx.Pairs {
		if usedD[p.D] {
			continue
		}
		if len(out) > 0 && out[len(out)-1].R == p.R {
			continue
		}
		already := false
		for _, a := range out {
			if a.R == p.R {
				already = true
				break
			}
		}
		if already {
			continue
		}
		usedD[p.D] = true
		out = append(out, Assignment{R: p.R, D: p.D})
	}
	return out
}

// noop assigns nothing.
type noop struct{}

func (noop) Name() string                     { return "noop" }
func (noop) Assign(ctx *Context) []Assignment { return nil }

// center returns a point near the middle of the NYC box.
func center() geo.Point { return geo.NYCBBox.Center() }

// offset shifts a point east by approximately the given meters.
func offset(p geo.Point, meters float64) geo.Point {
	dLng := meters / (geo.EarthRadiusMeters * math.Cos(p.Lat*math.Pi/180)) * 180 / math.Pi
	return geo.Point{Lng: p.Lng + dLng, Lat: p.Lat}
}

func simpleConfig() Config {
	return Config{Delta: 3, TC: 600, Horizon: 3600}
}

func TestEngineServesReachableOrder(t *testing.T) {
	// One driver 400m from the pickup; trip of ~2km east. At the 11 m/s
	// default speed the pickup takes ~36s against a 120s deadline.
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 10, Pickup: pickup,
		Dropoff:  offset(pickup, 2000),
		Deadline: 130,
	}}
	e := New(simpleConfig(), orders, []geo.Point{offset(pickup, 400)})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 || m.Reneged != 0 {
		t.Fatalf("served=%d reneged=%d, want 1/0", m.Served, m.Reneged)
	}
	wantTrip := roadnet.NewDefaultCoster().Cost(pickup, offset(pickup, 2000))
	if math.Abs(m.Revenue-wantTrip) > 1e-9 {
		t.Errorf("revenue = %v, want %v", m.Revenue, wantTrip)
	}
	if m.PickupSeconds <= 0 {
		t.Error("pickup seconds not recorded")
	}
	drv := e.Drivers()[0]
	if drv.Served != 1 {
		t.Errorf("driver served %d, want 1", drv.Served)
	}
	// Driver ends at the dropoff.
	if got := geo.Equirect(drv.Pos, offset(pickup, 2000)); got > 1 {
		t.Errorf("driver final position %.1fm from dropoff", got)
	}
}

func TestEngineRenegesUnreachableOrder(t *testing.T) {
	// Driver 10km away, deadline 60s: infeasible.
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 10, Pickup: pickup,
		Dropoff:  offset(pickup, 1000),
		Deadline: 70,
	}}
	e := New(simpleConfig(), orders, []geo.Point{offset(pickup, 10000)})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Reneged != 1 {
		t.Fatalf("served=%d reneged=%d, want 0/1", m.Served, m.Reneged)
	}
}

func TestEngineRenegesWithNoopDispatcher(t *testing.T) {
	pickup := center()
	orders := []trace.Order{
		{ID: 0, PostTime: 5, Pickup: pickup, Dropoff: offset(pickup, 500), Deadline: 100},
		{ID: 1, PostTime: 7, Pickup: pickup, Dropoff: offset(pickup, 900), Deadline: 150},
	}
	e := New(simpleConfig(), orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), noop{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Reneged != 2 {
		t.Fatalf("served=%d reneged=%d, want 0/2", m.Served, m.Reneged)
	}
	if m.Revenue != 0 {
		t.Errorf("revenue = %v, want 0", m.Revenue)
	}
}

func TestEngineBusyDriverRejoinsAndServesAgain(t *testing.T) {
	pickup := center()
	// Second order posted after the first trip completes, near the first
	// order's dropoff.
	drop1 := offset(pickup, 1600) // trip1 ~200s
	orders := []trace.Order{
		{ID: 0, PostTime: 3, Pickup: pickup, Dropoff: drop1, Deadline: 120},
		{ID: 1, PostTime: 400, Pickup: offset(drop1, 200), Dropoff: offset(drop1, 2000), Deadline: 520},
	}
	e := New(simpleConfig(), orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 2 {
		t.Fatalf("served = %d, want 2", m.Served)
	}
	// The idle ledger must contain the rejoin gap: driver completed trip
	// 1 well before order 2 arrived at t=400.
	foundRejoinIdle := false
	for _, rec := range m.IdleRecords {
		if rec.RejoinAt > 0 && rec.Realized > 100 {
			foundRejoinIdle = true
		}
	}
	if !foundRejoinIdle {
		t.Error("no rejoin idle record with the expected ~200s gap")
	}
}

func TestEngineIdleLedgerRealizedValues(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 100, Pickup: pickup,
		Dropoff: offset(pickup, 800), Deadline: 220,
	}}
	e := New(simpleConfig(), orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.IdleRecords) != 1 {
		t.Fatalf("%d idle records, want 1 (initial driver)", len(m.IdleRecords))
	}
	rec := m.IdleRecords[0]
	// Driver free since t=0, assigned at the first batch after t=100
	// (Delta=3 -> t=102).
	if rec.Realized < 100 || rec.Realized > 106 {
		t.Errorf("realized idle = %v, want ~102", rec.Realized)
	}
	if !math.IsNaN(rec.Estimate) {
		t.Errorf("estimate = %v, want NaN (dispatcher estimates nothing)", rec.Estimate)
	}
}

func TestEngineRejectsInvalidAssignments(t *testing.T) {
	pickup := center()
	mk := func() *Engine {
		orders := []trace.Order{{
			ID: 0, PostTime: 1, Pickup: pickup,
			Dropoff: offset(pickup, 500), Deadline: 200,
		}}
		return New(simpleConfig(), orders, []geo.Point{pickup, offset(pickup, 100)})
	}
	cases := []struct {
		name string
		d    Dispatcher
	}{
		{"out of range", funcDispatcher(func(ctx *Context) []Assignment {
			if len(ctx.Riders) == 0 {
				return nil
			}
			return []Assignment{{R: 0, D: 99}}
		})},
		{"rider twice", funcDispatcher(func(ctx *Context) []Assignment {
			if len(ctx.Riders) == 0 {
				return nil
			}
			return []Assignment{{R: 0, D: 0}, {R: 0, D: 1}}
		})},
		{"driver twice", funcDispatcher(func(ctx *Context) []Assignment {
			if len(ctx.Riders) < 1 {
				return nil
			}
			return []Assignment{{R: 0, D: 0}, {R: 0, D: 0}}
		})},
	}
	for _, c := range cases {
		if _, err := mk().Run(context.Background(), c.d); err == nil {
			t.Errorf("%s: engine accepted invalid assignment", c.name)
		}
	}
}

type funcDispatcher func(ctx *Context) []Assignment

func (funcDispatcher) Name() string                       { return "func" }
func (f funcDispatcher) Assign(ctx *Context) []Assignment { return f(ctx) }

func TestEngineRejectsDeadlineViolation(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 1, Pickup: pickup,
		Dropoff: offset(pickup, 500), Deadline: 40,
	}}
	// Driver 5km away cannot make a 40s deadline, but a malicious
	// dispatcher assigns it anyway by fabricating the pair.
	e := New(simpleConfig(), orders, []geo.Point{offset(pickup, 5000)})
	_, err := e.Run(context.Background(), funcDispatcher(func(ctx *Context) []Assignment {
		if len(ctx.Riders) == 0 || len(ctx.Drivers) == 0 {
			return nil
		}
		return []Assignment{{R: 0, D: 0}}
	}))
	if err == nil {
		t.Fatal("engine accepted a deadline-violating assignment")
	}
}

func TestEngineIgnorePickupServesInstantly(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 1, Pickup: pickup,
		Dropoff: offset(pickup, 3000), Deadline: 20,
	}}
	// Driver far away; only IgnorePickup can serve this.
	e := New(simpleConfig(), orders, []geo.Point{offset(pickup, 20000)})
	m, err := e.Run(context.Background(), funcDispatcher(func(ctx *Context) []Assignment {
		if len(ctx.Riders) == 0 || len(ctx.Drivers) == 0 {
			return nil
		}
		return []Assignment{{R: 0, D: 0, IgnorePickup: true}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 {
		t.Fatalf("served = %d, want 1", m.Served)
	}
	if m.PickupSeconds != 0 {
		t.Errorf("pickup seconds = %v, want 0 under IgnorePickup", m.PickupSeconds)
	}
}

func TestEngineSingleUse(t *testing.T) {
	e := New(simpleConfig(), nil, []geo.Point{center()})
	if _, err := e.Run(context.Background(), noop{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), noop{}); err == nil {
		t.Error("second Run accepted")
	}
}

func TestEnginePredictedDriversCountsFutureRejoins(t *testing.T) {
	pickup := center()
	drop := offset(pickup, 4000) // trip ~500s
	orders := []trace.Order{{
		ID: 0, PostTime: 1, Pickup: pickup, Dropoff: drop, Deadline: 120,
	}}
	var sawFuture bool
	grid := geo.NewNYCGrid()
	destRegion := grid.Region(drop)
	e := New(simpleConfig(), orders, []geo.Point{pickup})
	_, err := e.Run(context.Background(), funcDispatcher(func(ctx *Context) []Assignment {
		if ctx.Now > 10 && ctx.Now < 400 {
			if ctx.PredictedDrivers(destRegion) > 0 {
				sawFuture = true
			}
		}
		if len(ctx.Pairs) > 0 {
			return []Assignment{{R: ctx.Pairs[0].R, D: ctx.Pairs[0].D}}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !sawFuture {
		t.Error("busy driver's future rejoin never surfaced in PredictedDrivers")
	}
}

func TestEngineOutcomeAccounting(t *testing.T) {
	// Every order must terminate as served or reneged when the horizon
	// extends past all deadlines.
	pickup := center()
	var orders []trace.Order
	for i := 0; i < 40; i++ {
		p := offset(pickup, float64(i*150))
		orders = append(orders, trace.Order{
			ID: trace.OrderID(i), PostTime: float64(1 + i*20),
			Pickup: p, Dropoff: offset(p, 1200),
			Deadline: float64(1+i*20) + 120,
		})
	}
	e := New(simpleConfig(), orders, []geo.Point{pickup, offset(pickup, 2000)})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Reneged != m.TotalOrders {
		t.Errorf("served %d + reneged %d != total %d", m.Served, m.Reneged, m.TotalOrders)
	}
	if m.Served == 0 {
		t.Error("nothing served in a feasible scenario")
	}
	// Batches ran for the full horizon.
	if m.Batches != 1200 {
		t.Errorf("batches = %d, want 1200 (3600s / 3s)", m.Batches)
	}
	if m.ServiceRate() <= 0 || m.ServiceRate() > 1 {
		t.Errorf("service rate = %v", m.ServiceRate())
	}
}

func TestEngineDeterministic(t *testing.T) {
	pickup := center()
	var orders []trace.Order
	for i := 0; i < 30; i++ {
		p := offset(pickup, float64(i*200))
		orders = append(orders, trace.Order{
			ID: trace.OrderID(i), PostTime: float64(i * 10),
			Pickup: p, Dropoff: offset(p, 1500),
			Deadline: float64(i*10) + 150,
		})
	}
	starts := []geo.Point{pickup, offset(pickup, 1000), offset(pickup, 3000)}
	m1, err := New(simpleConfig(), orders, starts).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(simpleConfig(), orders, starts).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Revenue != m2.Revenue || m1.Served != m2.Served || m1.Reneged != m2.Reneged {
		t.Errorf("nondeterministic: %+v vs %+v", m1, m2)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{DispatchPhase: obs.HistogramSnapshot{
		Bounds: obs.DefBuckets, Buckets: make([]int64, len(obs.DefBuckets)+1)}}
	sum := 0.0
	for _, sec := range []float64{0.1, 0.3, 0.2} {
		m.DispatchPhase.Observe(sec)
		sum += sec
	}
	// The mean is exact: the same float sum in batch order.
	if got := m.AvgBatchSeconds(); got != sum/3 {
		t.Errorf("avg = %v, want %v", got, sum/3)
	}
	// The median, 0.2, sits in the (0.1, 0.2] bucket; so does its estimate.
	if got := m.BatchSecondsQuantile(0.5); got <= 0.1 || got > 0.2 {
		t.Errorf("p50 = %v, want within (0.1, 0.2]", got)
	}
	empty := &Metrics{}
	if empty.AvgBatchSeconds() != 0 || empty.BatchSecondsQuantile(0.5) != 0 || empty.ServiceRate() != 0 {
		t.Error("empty metrics helpers nonzero")
	}
}
