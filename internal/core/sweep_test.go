package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mrvd/internal/predict"
	"mrvd/internal/sim"
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
	want, err := NewRunner(o).Run(context.Background(), ShardDispatchers("IRG", 3, 1), PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprintf("%+v", res[0].Metrics.Summary())
	b := fmt.Sprintf("%+v", want.Summary())
	if a != b {
		t.Errorf("sweep cell != direct run:\nsweep:  %s\ndirect: %s", a, b)
	}
}

func TestSweepPredictModelSharesTraining(t *testing.T) {
	opts := testOptions()
	opts.Horizon = 3600
	spec := SweepSpec{
		Algorithms: []string{"IRG", "NEAR"},
		Seeds:      []int64{1},
		Fleets:     []int{20},
		Workers:    2,
		Mode:       PredictModel,
		Model:      func() predict.Predictor { return predict.HA{} },
	}
	res, err := Sweep(context.Background(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%+v: %v", r.SweepPoint, r.Err)
		}
		if r.Metrics.Served+r.Metrics.Reneged == 0 {
			t.Errorf("%+v: no outcomes", r.SweepPoint)
		}
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
	want, err := NewRunnerWithOrders(o, orders, starts).Run(context.Background(), ShardDispatchers("NEAR", 5, 1), PredictOracle, nil)
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
