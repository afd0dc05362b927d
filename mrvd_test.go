package mrvd

import (
	"bytes"
	"context"
	"math"
	"testing"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
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
		func(int) (sim.Dispatcher, error) { return &dispatch.LS{}, nil }, PredictOracle, nil)
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
		d, err := core.NewDispatcher(n, 1)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if d.Name() != n {
			t.Errorf("dispatcher %q reports %q", n, d.Name())
		}
	}
}

// TestPublicAPIDirectDispatchers: a caller-built IRG or LS run through
// Service.Runner is the same run as Service.Run by name.
func TestPublicAPIDirectDispatchers(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 2000, Seed: 1})
	svc := mustService(t, WithCity(city), WithFleet(20), WithBatchInterval(10),
		WithHorizon(2*3600), WithPrediction(PredictNone, nil))
	for _, d := range []sim.Dispatcher{&dispatch.IRG{}, &dispatch.LS{}} {
		direct, err := svc.Runner().Run(context.Background(),
			func(int) (sim.Dispatcher, error) { return d, nil }, PredictNone, nil)
		if err != nil {
			t.Fatal(err)
		}
		named, err := svc.Run(context.Background(), d.Name())
		if err != nil {
			t.Fatal(err)
		}
		if direct.Summary() != named.Summary() {
			t.Errorf("%s: direct %+v, named %+v", d.Name(), direct.Summary(), named.Summary())
		}
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
}

// TestPublicAPIGrids: the default city is the paper's 16x16 grid over
// NYC, and a live session reports that extent as its bounds.
func TestPublicAPIGrids(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 500, Seed: 1})
	if n := city.Grid().NumRegions(); n != 256 {
		t.Errorf("default city regions = %d, want 256", n)
	}
	svc := mustService(t, WithCity(city), WithFleet(5), WithHorizon(600))
	h, err := svc.Start(context.Background(), "NEAR", nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Stop()
	h.Result()
	if got, want := h.Bounds(), city.Grid().Bounds(); got != want {
		t.Errorf("session bounds %+v, city grid %+v", got, want)
	}
}

// TestPublicAPIPredictors: the paper's four demand models are available,
// and a trained model drives a model-prediction run.
func TestPublicAPIPredictors(t *testing.T) {
	want := map[string]bool{"STNet(DeepST)": true, "HA": true, "LR": true, "GBRT": true}
	for _, p := range predict.All(1) {
		if !want[p.Name()] {
			t.Errorf("unexpected predictor %s", p.Name())
		}
		delete(want, p.Name())
	}
	if len(want) > 0 {
		t.Errorf("missing predictors %v", want)
	}
	city := NewCity(CityConfig{OrdersPerDay: 500, Seed: 1})
	m, err := mustService(t, WithCity(city), WithFleet(5), WithHorizon(1800),
		WithPrediction(PredictModel, predict.HA{})).Run(context.Background(), "IRG")
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders == 0 {
		t.Errorf("empty model-prediction run: %+v", m)
	}
}

// TestPublicAPITraceRoundTrip: a runner's day written in the trace
// format reads back through ReadOrdersCSV unchanged, and writing what
// was read reproduces the file byte for byte — so mrvd-sim -write-trace
// output is a valid -trace input.
func TestPublicAPITraceRoundTrip(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 500, Seed: 2})
	orders := mustService(t, WithCity(city), WithFleet(5), WithHorizon(600)).Runner().Orders()
	var first bytes.Buffer
	if err := trace.WriteCSV(&first, orders); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOrdersCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orders) {
		t.Fatalf("round trip %d -> %d orders", len(orders), len(back))
	}
	var second bytes.Buffer
	if err := trace.WriteCSV(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("WriteCSV → ReadCSV → WriteCSV is not byte-identical")
	}
}

func TestPublicAPICosters(t *testing.T) {
	def := roadnet.NewDefaultCoster()
	a := Point{Lng: -73.98, Lat: 40.75}
	b := Point{Lng: -73.95, Lat: 40.77}
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
