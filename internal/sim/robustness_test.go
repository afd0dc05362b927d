package sim

import (
	"context"
	"math"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

func TestEngineZeroDrivers(t *testing.T) {
	pickup := center()
	orders := []trace.Order{
		{ID: 0, PostTime: 1, Pickup: pickup, Dropoff: offset(pickup, 500), Deadline: 100},
	}
	m, err := New(simpleConfig(), orders, nil).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Reneged != 1 {
		t.Errorf("served=%d reneged=%d with zero drivers", m.Served, m.Reneged)
	}
}

func TestEngineEmptyTrace(t *testing.T) {
	m, err := New(simpleConfig(), nil, []geo.Point{center()}).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders != 0 || m.Served != 0 || m.Revenue != 0 {
		t.Errorf("empty trace produced activity: %+v", m)
	}
	if m.Batches == 0 {
		t.Error("batch loop did not run")
	}
}

func TestEngineOrdersOutsideGrid(t *testing.T) {
	// Pickup and dropoff outside the NYC box: the engine clamps regions
	// and the run completes without panicking.
	orders := []trace.Order{
		{ID: 0, PostTime: 1, Pickup: geo.Point{Lng: -80, Lat: 45},
			Dropoff: geo.Point{Lng: -70, Lat: 39}, Deadline: 2000},
	}
	m, err := New(simpleConfig(), orders, []geo.Point{center()}).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Reneged != 1 {
		t.Errorf("outside-grid order did not terminate: %+v", m)
	}
}

func TestEngineRejectsNonFiniteOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN-coordinate order accepted")
		}
	}()
	orders := []trace.Order{
		{ID: 0, PostTime: 1, Pickup: geo.Point{Lng: math.NaN(), Lat: 40.7},
			Dropoff: center(), Deadline: 100},
	}
	New(simpleConfig(), orders, []geo.Point{center()})
}

// infCoster prices everything at +Inf, simulating a disconnected road
// network.
type infCoster struct{}

func (infCoster) Cost(a, b geo.Point) float64 { return math.Inf(1) }

func TestEngineInfiniteCostsServeNothing(t *testing.T) {
	pickup := center()
	orders := []trace.Order{
		{ID: 0, PostTime: 1, Pickup: pickup, Dropoff: offset(pickup, 500), Deadline: 100},
	}
	cfg := simpleConfig()
	cfg.Coster = infCoster{}
	m, err := New(cfg, orders, []geo.Point{pickup}).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Revenue != 0 {
		t.Errorf("served %d with infinite costs, revenue %v", m.Served, m.Revenue)
	}
}

func TestEngineZeroPatienceOrder(t *testing.T) {
	pickup := center()
	orders := []trace.Order{
		// Deadline == post time: only a co-located driver could serve it,
		// and only if a batch fires at exactly the right instant.
		{ID: 0, PostTime: 1, Pickup: pickup, Dropoff: offset(pickup, 500), Deadline: 1},
	}
	m, err := New(simpleConfig(), orders, []geo.Point{offset(pickup, 3000)}).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Reneged != 1 {
		t.Errorf("zero-patience order: served=%d reneged=%d", m.Served, m.Reneged)
	}
}

func TestEngineGraphCosterEndToEnd(t *testing.T) {
	// A small end-to-end run priced by real shortest paths.
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 9})
	pickup := center()
	var orders []trace.Order
	for i := 0; i < 10; i++ {
		p := offset(pickup, float64(i*300))
		orders = append(orders, trace.Order{
			ID: trace.OrderID(i), PostTime: float64(1 + i*30),
			Pickup: p, Dropoff: offset(p, 1500),
			Deadline: float64(1+i*30) + 600,
		})
	}
	cfg := simpleConfig()
	cfg.Coster = roadnet.NewGraphCoster(g)
	m, err := New(cfg, orders, []geo.Point{pickup, offset(pickup, 1000)}).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served == 0 {
		t.Error("graph-coster run served nothing")
	}
	if math.IsInf(m.Revenue, 0) || math.IsNaN(m.Revenue) {
		t.Errorf("revenue = %v", m.Revenue)
	}
}

func TestEngineManyOrdersOneBatch(t *testing.T) {
	// A burst of simultaneous orders larger than the fleet: the engine
	// must assign at most one rider per driver and renege the rest on
	// deadline.
	pickup := center()
	var orders []trace.Order
	for i := 0; i < 50; i++ {
		orders = append(orders, trace.Order{
			ID: trace.OrderID(i), PostTime: 1,
			Pickup:   offset(pickup, float64(i*10)),
			Dropoff:  offset(pickup, 5000),
			Deadline: 120,
		})
	}
	starts := []geo.Point{pickup, offset(pickup, 100), offset(pickup, 200)}
	m, err := New(simpleConfig(), orders, starts).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served > 3 {
		t.Errorf("served %d with 3 drivers and ~470s trips inside 120s deadlines", m.Served)
	}
	if m.Served+m.Reneged != 50 {
		t.Errorf("outcome accounting: %d+%d != 50", m.Served, m.Reneged)
	}
}
