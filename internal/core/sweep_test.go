package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

func sweepSpec(workers int) SweepSpec {
	return SweepSpec{
		Algorithms: []string{"IRG", "NEAR", "RAND"},
		Seeds:      []int64{1, 2},
		Fleets:     []int{20, 40},
		Workers:    workers,
		Mode:       PredictOracle,
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	opts := testOptions()
	opts.Horizon = 2 * 3600
	seq, err := Sweep(context.Background(), opts, sweepSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(context.Background(), opts, sweepSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) != 3*2*2 {
		t.Fatalf("result counts: seq=%d par=%d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].SweepPoint != par[i].SweepPoint {
			t.Fatalf("grid order diverged at %d: %+v vs %+v", i, seq[i].SweepPoint, par[i].SweepPoint)
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %v errored: seq=%v par=%v", seq[i].SweepPoint, seq[i].Err, par[i].Err)
		}
		// Byte-identical deterministic projections.
		a := fmt.Sprintf("%+v", seq[i].Metrics.Summary())
		b := fmt.Sprintf("%+v", par[i].Metrics.Summary())
		if a != b {
			t.Errorf("cell %+v diverged:\nseq: %s\npar: %s", seq[i].SweepPoint, a, b)
		}
	}
}

func TestSweepMatchesDirectRun(t *testing.T) {
	// Each sweep cell must equal a hand-rolled sequential Runner.Run of
	// the same point, history sharing and all.
	opts := testOptions()
	opts.Horizon = 2 * 3600
	spec := SweepSpec{Algorithms: []string{"IRG"}, Seeds: []int64{3}, Fleets: []int{25}, Workers: 2, Mode: PredictOracle}
	res, err := Sweep(context.Background(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("sweep: %+v", res)
	}
	o := opts
	o.Seed = 3
	o.NumDrivers = 25
	want, err := NewRunner(o).Run(context.Background(), mustDispatcher(t, "IRG", 3), PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprintf("%+v", res[0].Metrics.Summary())
	b := fmt.Sprintf("%+v", want.Summary())
	if a != b {
		t.Errorf("sweep cell != direct run:\nsweep:  %s\ndirect: %s", a, b)
	}
}

// countingHA is the historical-average predictor under a chosen name,
// recording every Train call.
type countingHA struct {
	predict.HA
	name   string
	trains *trainLog
}

type trainLog struct {
	mu    sync.Mutex
	calls map[string]int // "name/history pointer" -> Train calls
}

func (c countingHA) Name() string { return c.name }

func (c countingHA) Train(h *predict.History, trainDays int) error {
	c.trains.mu.Lock()
	c.trains.calls[fmt.Sprintf("%s/%p", c.name, h)]++
	c.trains.mu.Unlock()
	return c.HA.Train(h, trainDays)
}

// TestSweepPredictModelSharesTraining: over a 3-layer, 2-seed grid with
// two model-fed series, a model-fed series naming the first one's
// predictor again and an oracle series, each (city, seed, predictor
// name) trains exactly once on one shared history — not once per layer,
// fleet or cell — and a layer that swaps the city trains again.
func TestSweepPredictModelSharesTraining(t *testing.T) {
	opts := testOptions()
	opts.Horizon = 3600
	log := &trainLog{calls: map[string]int{}}
	model := func(name string) func(int64) predict.Predictor {
		return func(int64) predict.Predictor { return countingHA{name: name, trains: log} }
	}
	otherCity := workload.NewCity(workload.CityConfig{Grid: geo.NewGrid(geo.NYCBBox, 4, 4), OrdersPerDay: 5000, Seed: 10})
	spec := SweepSpec{
		Series: []SweepSeries{
			{Label: "IRG-A", Algorithm: "IRG", Mode: PredictModel, Model: model("A")},
			{Label: "POLAR-B", Algorithm: "POLAR", Mode: PredictModel, Model: model("B")},
			{Label: "LS-A", Algorithm: "LS", Mode: PredictModel, Model: model("A")},
			{Label: "IRG-R", Algorithm: "IRG", Mode: PredictOracle},
		},
		Layers: []SweepLayer{
			{Name: "base"},
			{Name: "delta20", Apply: func(o *Options) { o.Delta = 20 }},
			{Name: "tc600", Apply: func(o *Options) { o.TC = 600 }},
		},
		Seeds:   []int64{1, 2},
		Fleets:  []int{20, 30},
		Workers: 3,
	}
	res, err := Sweep(context.Background(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3*2*2*4 {
		t.Fatalf("%d results, want 48", len(res))
	}
	if first, last := res[0].SweepPoint, res[len(res)-1].SweepPoint; first != (SweepPoint{"IRG-A", "base", 1, 20}) || last != (SweepPoint{"IRG-R", "tc600", 2, 30}) {
		t.Errorf("grid order: first %+v, last %+v", first, last)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%+v: %v", r.SweepPoint, r.Err)
		}
		if r.Metrics.Served+r.Metrics.Reneged == 0 {
			t.Errorf("%+v: no outcomes", r.SweepPoint)
		}
	}
	// 2 seeds x {A, B}: four (history, name) keys, each trained once.
	if len(log.calls) != 4 {
		t.Errorf("trained %d (name, history) pairs, want 4: %v", len(log.calls), log.calls)
	}
	for k, n := range log.calls {
		if n != 1 {
			t.Errorf("%s trained %d times, want 1", k, n)
		}
	}

	// A second city is a second history: its layer trains again, the
	// base layer's training is still shared.
	log.calls = map[string]int{}
	spec.Layers = []SweepLayer{{Name: "base"}, {Name: "city2", Apply: func(o *Options) { o.City = otherCity }}}
	spec.Seeds, spec.Fleets = []int64{1}, []int{20}
	if _, err := Sweep(context.Background(), opts, spec); err != nil {
		t.Fatal(err)
	}
	if len(log.calls) != 4 {
		t.Errorf("two cities trained %d (name, history) pairs, want 4: %v", len(log.calls), log.calls)
	}
}

// TestSweepSeriesDispatcherFactory: a series built from a concrete
// dispatcher factory runs like the named algorithm it reconstructs, and
// results carry the series label.
func TestSweepSeriesDispatcherFactory(t *testing.T) {
	opts := testOptions()
	opts.Horizon = 2 * 3600
	res, err := Sweep(context.Background(), opts, SweepSpec{
		Algorithms: []string{"RAND"},
		Series: []SweepSeries{{Label: "RAND (factory)", Mode: PredictOracle,
			New: func(seed int64) sim.Dispatcher { return &dispatch.RAND{Seed: seed} }}},
		Seeds: []int64{4},
		Mode:  PredictOracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("sweep: %+v", res)
	}
	if res[0].Algorithm != "RAND" || res[1].Algorithm != "RAND (factory)" {
		t.Errorf("labels %q, %q", res[0].Algorithm, res[1].Algorithm)
	}
	if a, b := fmt.Sprintf("%+v", res[0].Metrics.Summary()), fmt.Sprintf("%+v", res[1].Metrics.Summary()); a != b {
		t.Errorf("factory series diverged from the named algorithm:\n%s\n%s", a, b)
	}
}

func TestSweepExternalTrace(t *testing.T) {
	// A fixed external trace replays in every cell; parity with a direct
	// NewRunnerWithOrders run of the same point.
	opts := testOptions()
	opts.Horizon = 2 * 3600
	orders := NewRunner(opts).Orders() // any fixed trace will do
	spec := SweepSpec{
		Algorithms: []string{"NEAR"},
		Seeds:      []int64{5},
		Fleets:     []int{15},
		Workers:    2,
		Mode:       PredictOracle,
		Orders:     orders,
	}
	res, err := Sweep(context.Background(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("sweep: %+v", res)
	}
	if res[0].Metrics.TotalOrders != len(orders) {
		t.Fatalf("TotalOrders = %d, want the external trace's %d", res[0].Metrics.TotalOrders, len(orders))
	}
	o := opts
	o.Seed = 5
	o.NumDrivers = 15
	rng := rand.New(rand.NewSource(5))
	starts := o.WithDefaults().City.InitialDrivers(15, orders, rng)
	want, err := NewRunnerWithOrders(o, orders, starts).Run(context.Background(), mustDispatcher(t, "NEAR", 5), PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprintf("%+v", res[0].Metrics.Summary())
	b := fmt.Sprintf("%+v", want.Summary())
	if a != b {
		t.Errorf("external-trace sweep cell != direct run:\nsweep:  %s\ndirect: %s", a, b)
	}
}

func TestSweepStripsPerRunHooks(t *testing.T) {
	// A shared Observer would race across worker goroutines and pacing
	// would throttle cells to wall-clock speed; Sweep must run cells
	// unobserved and unpaced.
	events := 0
	opts := testOptions()
	opts.Horizon = 1800
	opts.Observer = sim.ObserverFuncs{BatchStart: func(sim.BatchStartEvent) { events++ }}
	opts.PaceFactor = 0.001 // would take ~50 wall minutes per batch if honored
	done := make(chan struct{})
	var res []SweepResult
	var err error
	go func() {
		defer close(done)
		res, err = Sweep(context.Background(), opts,
			SweepSpec{Algorithms: []string{"NEAR"}, Workers: 2, Mode: PredictOracle})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep appears paced; per-run hooks not stripped")
	}
	if err != nil || len(res) != 1 || res[0].Err != nil {
		t.Fatalf("sweep: %v %+v", err, res)
	}
	if events != 0 {
		t.Errorf("shared observer saw %d events; must be stripped from cells", events)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(context.Background(), testOptions(), SweepSpec{}); err == nil {
		t.Error("empty algorithm list accepted")
	}
	if _, err := Sweep(context.Background(), testOptions(), SweepSpec{Algorithms: []string{"BOGUS"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Sweep(context.Background(), testOptions(), SweepSpec{Algorithms: []string{"IRG"}, Mode: PredictModel}); err == nil {
		t.Error("PredictModel without model factory accepted")
	}
	if _, err := Sweep(context.Background(), testOptions(), SweepSpec{Series: []SweepSeries{{Algorithm: "IRG", Mode: PredictModel}}}); err == nil {
		t.Error("PredictModel series without model factory accepted")
	}
	// A fleet below 1 used to run the default fleet under the wrong label.
	for _, fleets := range [][]int{{0, 40}, {-3}} {
		if _, err := Sweep(context.Background(), testOptions(), SweepSpec{Algorithms: []string{"NEAR"}, Fleets: fleets}); err == nil {
			t.Errorf("fleets %v accepted", fleets)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Sweep(ctx, testOptions(), sweepSpec(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range res {
		if r.Err == nil {
			t.Errorf("cell %+v completed under canceled context", r.SweepPoint)
		}
	}
}
