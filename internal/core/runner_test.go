package core

import (
	"context"
	"math"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

// testOptions returns a small, fast instance: a 4x4-grid city with a
// short horizon.
func testOptions() Options {
	return Options{
		City: workload.NewCity(workload.CityConfig{
			Grid:         geo.NewGrid(geo.NYCBBox, 4, 4),
			OrdersPerDay: 6000,
			Seed:         9,
		}),
		NumDrivers: 40,
		Delta:      10,
		TC:         1200,
		Horizon:    4 * 3600,
		Seed:       1,
		TrainDays:  predict.MinLookbackDays + 3,
	}
}

// mustDispatcher builds a fresh named dispatcher: dispatchers are
// stateful, so every run gets its own.
func mustDispatcher(t *testing.T, name string, seed int64) sim.Dispatcher {
	t.Helper()
	d, err := NewDispatcher(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunnerDefaultsApplied(t *testing.T) {
	r := NewRunner(Options{City: testOptions().City})
	o := r.Options()
	if o.NumDrivers != 100 || o.Delta != 3 || o.TC != 1200 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if len(r.Orders()) == 0 {
		t.Error("no orders generated")
	}
}

func TestRunnerRunAllAlgorithmsNoPrediction(t *testing.T) {
	r := NewRunner(testOptions())
	for _, name := range AlgorithmNames() {
		m, err := r.Run(context.Background(), mustDispatcher(t, name, 7), PredictNone, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Served+m.Reneged == 0 {
			t.Errorf("%s: no rider outcomes", name)
		}
		if m.Revenue < 0 {
			t.Errorf("%s: negative revenue", name)
		}
	}
}

func TestRunnerOracleBeatsOrMatchesNoPrediction(t *testing.T) {
	// The oracle gives the queueing model real future demand; for IRG it
	// should not hurt revenue (statistically it helps, but at this small
	// scale assert non-catastrophic: within 5% below, typically above).
	r := NewRunner(testOptions())
	none, err := r.Run(context.Background(), mustDispatcher(t, "IRG", 0), PredictNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := r.Run(context.Background(), mustDispatcher(t, "IRG", 0), PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("none=%.0f oracle=%.0f", none.Revenue, oracle.Revenue)
	if oracle.Revenue < 0.95*none.Revenue {
		t.Errorf("oracle prediction hurt IRG badly: %.0f vs %.0f", oracle.Revenue, none.Revenue)
	}
}

func TestRunnerModelPrediction(t *testing.T) {
	r := NewRunner(testOptions())
	m, err := r.Run(context.Background(), mustDispatcher(t, "IRG", 0), PredictModel, predict.HA{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served == 0 {
		t.Error("model-predicted run served nothing")
	}
	// The trained predictor is cached by name.
	if _, ok := r.trainedSet["HA"]; !ok {
		t.Error("predictor not cached")
	}
}

func TestRunnerModelPredictionRequiresModel(t *testing.T) {
	r := NewRunner(testOptions())
	if _, err := r.Run(context.Background(), mustDispatcher(t, "IRG", 0), PredictModel, nil); err == nil {
		t.Error("PredictModel without a model accepted")
	}
}

func TestNewDispatcherUnknown(t *testing.T) {
	if _, err := NewDispatcher("NOPE", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, name := range AlgorithmNames() {
		d, err := NewDispatcher(name, 1)
		if err != nil || d == nil {
			t.Errorf("%s: %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("dispatcher %q reports name %q", name, d.Name())
		}
	}
}

func TestWindowCountsFractionalOverlap(t *testing.T) {
	// Slot width 100, window [50, 250): half of slot 0, all of slot 1,
	// half of slot 2.
	slotRow := func(slot int) []float64 { return []float64{10} }
	if got := windowCount(50, 200, 100, 10, slotRow, 0); got != 20 { // 5 + 10 + 5
		t.Errorf("window count = %d, want 20", got)
	}
	// Window entirely inside one slot.
	if got := windowCount(10, 50, 100, 10, slotRow, 0); got != 5 {
		t.Errorf("half-slot window = %d, want 5", got)
	}
	// Window past the end of the day clamps to the last slot.
	if got := windowCount(950, 100, 100, 10, slotRow, 0); got != 10 {
		t.Errorf("end-of-day window = %d, want 10", got)
	}
}

func TestRunnerDeterministicInstances(t *testing.T) {
	a := NewRunner(testOptions())
	b := NewRunner(testOptions())
	if len(a.Orders()) != len(b.Orders()) {
		t.Fatal("same options, different instances")
	}
	for i := range a.Orders() {
		if a.Orders()[i] != b.Orders()[i] {
			t.Fatal("same options, different orders")
		}
	}
	ma, err := a.Run(context.Background(), mustDispatcher(t, "LS", 0), PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Run(context.Background(), mustDispatcher(t, "LS", 0), PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ma.Revenue-mb.Revenue) > 1e-9 || ma.Served != mb.Served {
		t.Errorf("nondeterministic runs: %.0f/%d vs %.0f/%d",
			ma.Revenue, ma.Served, mb.Revenue, mb.Served)
	}
}

func TestRunnerShareFromPreservesResults(t *testing.T) {
	// History/model sharing across runners (used by the sweep harness)
	// must not change outcomes: a shared-history run equals a fresh one.
	opts := testOptions()
	fresh := NewRunner(opts)
	want, err := fresh.Run(context.Background(), mustDispatcher(t, "IRG", 0), PredictModel, predict.HA{})
	if err != nil {
		t.Fatal(err)
	}

	base := NewRunner(opts) // builds its own history on demand
	base.History()
	shared := NewRunner(opts)
	shared.ShareFrom(base)
	got, err := shared.Run(context.Background(), mustDispatcher(t, "IRG", 0), PredictModel, predict.HA{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Revenue != want.Revenue || got.Served != want.Served {
		t.Errorf("shared history changed results: %v/%d vs %v/%d",
			got.Revenue, got.Served, want.Revenue, want.Served)
	}
}

func TestRunnerHistoryIncludesTestDay(t *testing.T) {
	r := NewRunner(testOptions())
	h := r.History()
	if h.Days() != r.Options().TrainDays+1 {
		t.Errorf("history has %d days, want TrainDays+1 = %d",
			h.Days(), r.Options().TrainDays+1)
	}
	if len(h.Meta) != h.Days() {
		t.Fatalf("%d meta-days for %d count-days", len(h.Meta), h.Days())
	}
	// The appended day's counts must equal the runner's orders bucketed.
	total := 0
	last := h.Counts[h.Days()-1]
	if len(last) != h.SlotsPerDay {
		t.Fatalf("appended day has %d slots, want %d", len(last), h.SlotsPerDay)
	}
	for _, slot := range last {
		for _, c := range slot {
			total += c
		}
	}
	inBox := 0
	grid := r.Options().City.Grid()
	for _, o := range r.Orders() {
		if grid.Region(o.Pickup) != geo.InvalidRegion {
			inBox++
		}
	}
	if total != inBox {
		t.Errorf("test-day counts sum to %d, orders in box %d", total, inBox)
	}
}
