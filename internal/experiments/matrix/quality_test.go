package matrix

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// Quality-regression guards. bench/ pins speed; these cells pin
// dispatch *quality*: orderings the paper's results and the pooling
// subsystem's reason-to-exist both imply. A change that silently
// degrades IRG below random dispatch, or makes pooled capacity lose to
// solo on a saturated burst, fails `go test ./...` here.

// TestQualityIRGServesAtLeastRAND: on a small fixed full-day cell
// (every run deterministic, so this is a pin, not a flake), the
// paper's IRG must beat-or-match uniformly random dispatch on mean
// serve rate and mean revenue across 5 seeded instances.
func TestQualityIRGServesAtLeastRAND(t *testing.T) {
	cfg := Config{
		Name: "quality-irg",
		Base: core.Options{
			City: workload.NewCity(workload.CityConfig{
				Grid:         geo.NewGrid(geo.NYCBBox, 8, 8),
				OrdersPerDay: 3000,
				Seed:         9,
			}),
			NumDrivers: 15,
			Delta:      10,
		},
		Algorithms: []string{"IRG", "RAND"},
		Seeds:      []int64{1, 2, 3, 4, 5},
		Mode:       core.PredictOracle,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := cfg.Base.NumDrivers
	irg := res.Cell(CellKey{"IRG", "base", fleet})
	rnd := res.Cell(CellKey{"RAND", "base", fleet})
	if irg == nil || rnd == nil {
		t.Fatal("cells missing")
	}
	if irg.Stats.ServeRate.Mean < rnd.Stats.ServeRate.Mean {
		t.Errorf("IRG mean serve rate %.4f below RAND %.4f — quality regression",
			irg.Stats.ServeRate.Mean, rnd.Stats.ServeRate.Mean)
	}
	if irg.Stats.Revenue.Mean < rnd.Stats.Revenue.Mean {
		t.Errorf("IRG mean revenue %.4g below RAND %.4g — quality regression",
			irg.Stats.Revenue.Mean, rnd.Stats.Revenue.Mean)
	}
	for _, m := range res.Comparisons[0].Metrics {
		if m.Metric == "serve_rate" {
			t.Logf("IRG vs RAND serve rate: diff %.4f ± %.4f, %d/%d/%d (sign p %.3f)",
				m.Paired.Diff.Mean, m.Paired.Diff.Half,
				m.Paired.Wins, m.Paired.Losses, m.Paired.Ties, m.Paired.SignP)
		}
	}
}

// TestQualityPooledServesAtLeastSolo: on the saturated-peak fixture
// (corridor burst, far more riders than drivers), POOL at capacity 2
// must serve at least as many riders as solo dispatch, and must
// actually pool some of them. Losing this ordering means insertion
// search or plan accounting regressed.
func TestQualityPooledServesAtLeastSolo(t *testing.T) {
	orders, starts := saturatedPeak(40, 4, 7)
	cfg := Config{
		Name: "quality-pooling",
		Base: core.Options{
			// The city only provides the grid and oracle shape; orders
			// replay the fixed corridor trace with pinned starts.
			City: workload.NewCity(workload.CityConfig{
				Grid:         geo.NewGrid(geo.NYCBBox, 4, 4),
				OrdersPerDay: 1000,
				Seed:         9,
			}),
			NumDrivers: len(starts),
			Delta:      3,
			Horizon:    4000,
		},
		Algorithms: []string{"POOL"},
		Scenarios: []Scenario{
			{Name: "solo"},
			{Name: "cap2", Pooling: pool.Config{Capacity: 2, MaxDetourSeconds: 240}},
		},
		Seeds:  []int64{1},
		Orders: orders,
		Starts: starts,
		Comparisons: []Comparison{{
			Label: "cap2 vs solo",
			A:     CellKey{"POOL", "cap2", len(starts)},
			B:     CellKey{"POOL", "solo", len(starts)},
		}},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo := res.Cell(CellKey{"POOL", "solo", len(starts)})
	cap2 := res.Cell(CellKey{"POOL", "cap2", len(starts)})
	if solo == nil || cap2 == nil {
		t.Fatal("cells missing")
	}
	if cap2.Stats.ServeRate.Mean < solo.Stats.ServeRate.Mean {
		t.Errorf("pooled capacity-2 serve rate %.4f below solo %.4f on the saturated peak — quality regression",
			cap2.Stats.ServeRate.Mean, solo.Stats.ServeRate.Mean)
	}
	if cap2.Stats.SharedRate.Mean <= 0 {
		t.Error("capacity-2 cell pooled nothing on a saturated corridor burst")
	}
	if cap2.Stats.MeanDetourSeconds.Max > 240+1e-9 {
		t.Errorf("mean detour %.1fs exceeds the 240s bound", cap2.Stats.MeanDetourSeconds.Max)
	}
	t.Logf("saturated peak: solo served %.0f, cap2 served %.0f (shared rate %.2f, mean detour %.1fs)",
		solo.Stats.ServeRate.Mean*float64(len(orders)), cap2.Stats.ServeRate.Mean*float64(len(orders)),
		cap2.Stats.SharedRate.Mean, cap2.Stats.MeanDetourSeconds.Mean)
}

// saturatedPeak builds the corridor-burst fixture the pooling quality
// guard pins: nOrders riders along one eastbound corridor posted
// within the first minute, nDrivers drivers spaced along it — far more
// demand than solo dispatch can serve before deadlines pass, so pooled
// capacity is the only way to raise throughput. Returns the trace and
// pinned fleet starts for a Config.Orders/Starts replay.
func saturatedPeak(nOrders, nDrivers int, seed int64) ([]trace.Order, []geo.Point) {
	p0 := geo.NYCBBox.Center()
	offset := func(p geo.Point, meters float64) geo.Point {
		dLng := meters / (geo.EarthRadiusMeters * math.Cos(p.Lat*math.Pi/180)) * 180 / math.Pi
		return geo.Point{Lng: p.Lng + dLng, Lat: p.Lat}
	}
	rng := rand.New(rand.NewSource(seed))
	orders := make([]trace.Order, nOrders)
	for i := range orders {
		start := rng.Float64() * 3000
		length := 1000 + rng.Float64()*3000
		post := rng.Float64() * 60
		orders[i] = trace.Order{
			ID:       trace.OrderID(i),
			PostTime: post,
			Pickup:   offset(p0, start),
			Dropoff:  offset(p0, start+length),
			Deadline: post + 240 + rng.Float64()*120,
		}
	}
	starts := make([]geo.Point, nDrivers)
	for i := range starts {
		starts[i] = offset(p0, float64(i)*3000/float64(nDrivers))
	}
	return orders, starts
}
