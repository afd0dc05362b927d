package mrvd

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 4000, Seed: 1})
	svc, err := NewService(
		WithCity(city),
		WithFleet(30),
		WithBatchInterval(10),
		WithHorizon(3*3600),
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.Run(context.Background(), "LS")
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders == 0 || m.Batches == 0 {
		t.Errorf("empty run: %+v", m)
	}
	if m.Served+m.Reneged > m.TotalOrders {
		t.Errorf("outcome accounting broken: %d+%d > %d", m.Served, m.Reneged, m.TotalOrders)
	}
}

func TestPublicAPIRunnerFlow(t *testing.T) {
	// Service.Runner hands out the materialized instance; it runs a
	// caller-built dispatcher, not only a named one.
	city := NewCity(CityConfig{OrdersPerDay: 2000, Seed: 1})
	svc := mustService(t, WithCity(city), WithFleet(20), WithBatchInterval(10), WithHorizon(2*3600))
	m, err := svc.Runner().Run(context.Background(),
		func(int) (Dispatcher, error) { return NewLS(), nil }, PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders == 0 {
		t.Errorf("empty run: %+v", m)
	}
}

func TestPublicAPIAlgorithmNames(t *testing.T) {
	names := AlgorithmNames()
	if len(names) != 9 {
		t.Fatalf("AlgorithmNames = %v", names)
	}
	for _, n := range names {
		d, err := NewDispatcher(n, 1)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if d.Name() != n {
			t.Errorf("dispatcher %q reports %q", n, d.Name())
		}
	}
	if _, err := NewDispatcher("bogus", 1); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestPublicAPIQueueing(t *testing.T) {
	// More rider demand means shorter driver idle.
	lo := ExpectedIdleTime(0.5, 0.2, 50)
	hi := ExpectedIdleTime(0.1, 0.2, 50)
	if lo >= hi {
		t.Errorf("ET not monotone: ET(0.5)=%v >= ET(0.1)=%v", lo, hi)
	}
	if et := ExpectedIdleTime(0, 0.2, 50); !math.IsInf(et, 1) {
		t.Errorf("no-demand ET = %v, want +Inf", et)
	}
	m := NewQueueModel(QueueConfig{Beta: 0.1})
	if m.ExpectedIdleTime(0.3, 0.2, 10) <= 0 {
		t.Error("custom model ET not positive")
	}
}

func TestPublicAPIGrids(t *testing.T) {
	g := NewNYCGrid()
	if g.NumRegions() != 256 {
		t.Errorf("NYC grid regions = %d", g.NumRegions())
	}
	g2 := NewGrid(NYCBBox, 8, 8)
	if g2.NumRegions() != 64 {
		t.Errorf("8x8 grid regions = %d", g2.NumRegions())
	}
}

func TestPublicAPIPredictors(t *testing.T) {
	ps := Predictors(1)
	if len(ps) != 4 {
		t.Fatalf("Predictors returned %d models", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	for _, want := range []string{"STNet(DeepST)", "HA", "LR", "GBRT"} {
		if !names[want] {
			t.Errorf("missing predictor %s (have %v)", want, names)
		}
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 500, Seed: 2})
	orders := mustService(t, WithCity(city), WithFleet(5), WithHorizon(600)).Runner().Orders()
	var buf bytes.Buffer
	if err := WriteOrdersCSV(&buf, orders); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOrdersCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orders) {
		t.Errorf("round trip %d -> %d orders", len(orders), len(back))
	}
}

func TestPublicAPICosters(t *testing.T) {
	def := DefaultCoster()
	a := Point{Lng: -73.98, Lat: 40.75}
	b := Point{Lng: -73.95, Lat: 40.77}
	if def.Cost(a, b) <= 0 {
		t.Error("default coster returned non-positive cost")
	}
	graph := GraphCoster(1)
	if c := graph.Cost(a, b); c <= 0 || math.IsInf(c, 1) {
		t.Errorf("graph coster cost = %v", c)
	}
	// Street networks can only be slower than the L1 lower bound at the
	// same speed... jitter makes individual streets faster, so allow 2x
	// slack either way; this is a sanity check, not a bound proof.
	if ratio := graph.Cost(a, b) / def.Cost(a, b); ratio < 0.4 || ratio > 3 {
		t.Errorf("graph/default cost ratio %v implausible", ratio)
	}
}

func TestPublicAPIDirectDispatchers(t *testing.T) {
	if NewIRG().Name() != "IRG" {
		t.Error("NewIRG name")
	}
	if NewLS().Name() != "LS" {
		t.Error("NewLS name")
	}
}
