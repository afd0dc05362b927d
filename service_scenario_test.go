package mrvd

import (
	"context"
	"errors"
	"testing"
	"time"

	"mrvd/internal/sim"
)

func TestWithScenarioValidation(t *testing.T) {
	bad := []ScenarioConfig{
		{CancelRate: -0.1},
		{CancelRate: 1.5},
		{DeclineProb: 2},
		{DeclineProb: -1},
		{DeclineCooldown: -5},
		{TravelNoise: -0.2},
	}
	for _, sc := range bad {
		if _, err := NewService(WithScenario(sc)); err == nil {
			t.Errorf("WithScenario(%+v) accepted", sc)
		}
	}
	if _, err := NewService(WithScenario(ScenarioConfig{
		CancelRate: 0.2, DeclineProb: 0.1, DeclineCooldown: 30, TravelNoise: 0.3, Seed: 1,
	})); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestServiceScenarioZeroValueParity: WithScenario with a zero-valued
// config is exactly equivalent to omitting the option.
func TestServiceScenarioZeroValueParity(t *testing.T) {
	mk := func(opts ...Option) Summary {
		base := []Option{
			WithCity(NewCity(CityConfig{OrdersPerDay: 1500, Seed: 17})),
			WithFleet(40),
			WithHorizon(4 * 3600),
			WithPrediction(PredictNone, nil),
		}
		svc := mustService(t, append(base, opts...)...)
		m, err := svc.Run(context.Background(), "LS")
		if err != nil {
			t.Fatal(err)
		}
		return m.Summary()
	}
	plain := mk()
	zero := mk(WithScenario(ScenarioConfig{Seed: 42}))
	if plain != zero {
		t.Fatalf("zero-valued WithScenario changed the run:\n  plain: %+v\n  zero:  %+v", plain, zero)
	}
}

// TestServiceScenarioRun: the disruption layer reaches Service.Run —
// cancels and declines show up in the aggregated metrics and reduce
// neither determinism nor accounting.
func TestServiceScenarioRun(t *testing.T) {
	run := func() Summary {
		svc := mustService(t,
			WithCity(NewCity(CityConfig{OrdersPerDay: 1500, Seed: 17})),
			WithFleet(40),
			WithHorizon(4*3600),
			WithPrediction(PredictNone, nil),
			WithScenario(ScenarioConfig{CancelRate: 0.25, DeclineProb: 0.1, TravelNoise: 0.2, Seed: 3}),
		)
		m, err := svc.Run(context.Background(), "LS")
		if err != nil {
			t.Fatal(err)
		}
		// The 4h horizon truncates the sized full-day trace, so terminal
		// outcomes only cover the admitted prefix.
		if m.Served+m.Reneged+m.Canceled > m.TotalOrders {
			t.Fatalf("accounting broken: %+v", m.Summary())
		}
		return m.Summary()
	}
	a := run()
	if a.Canceled == 0 || a.Declines == 0 || a.TravelSamples == 0 {
		t.Fatalf("scenario inactive: %+v", a)
	}
	if b := run(); a != b {
		t.Fatalf("scenario run not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// cancelTestService builds a session where a submitted order is out of
// every driver's reach, so it stays waiting until canceled or expired.
func cancelTestService(t *testing.T) (*Service, []Point, Point) {
	t.Helper()
	city := NewCity(CityConfig{OrdersPerDay: 1000, Seed: 6})
	box := city.Grid().Bounds()
	svc := mustService(t,
		WithCity(city),
		WithFleet(2),
		WithBatchInterval(3),
		WithHorizon(30*24*3600),
		WithPrediction(PredictNone, nil),
	)
	// Fleet in one corner, far pickup in the other: at 600s patience the
	// search radius (600 * 12 m/s = 7.2km) never reaches the fleet.
	starts := []Point{
		{Lng: box.MinLng + 1e-3, Lat: box.MinLat + 1e-3},
		{Lng: box.MinLng + 2e-3, Lat: box.MinLat + 1e-3},
	}
	farPickup := Point{Lng: box.MaxLng - 1e-3, Lat: box.MaxLat - 1e-3}
	return svc, starts, farPickup
}

func TestServeHandleCancelResolvesOutcome(t *testing.T) {
	svc, starts, farPickup := cancelTestService(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	now := h.Clock()
	id, ch, err := h.Submit(Order{
		PostTime: now, Deadline: now + 600,
		Pickup: farPickup, Dropoff: Point{Lng: farPickup.Lng - 1e-2, Lat: farPickup.Lat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Cancel(id); err != nil {
		t.Fatalf("Cancel(%d) = %v", id, err)
	}
	select {
	case out := <-ch:
		if out.State != sim.OrderCanceled {
			t.Fatalf("order %d status %v, want canceled_by_rider", id, out.State)
		}
		if v, ok := h.Store().Order(id); !ok || v != out {
			t.Fatalf("ledger view %+v (known=%v) differs from the delivered outcome %+v", v, ok, out)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancel outcome never arrived")
	}
	// The waiter is gone: a second cancel is an unknown order.
	if err := h.Cancel(id); !errors.Is(err, errUnknownOrder) {
		t.Fatalf("double cancel = %v, want errUnknownOrder", err)
	}
	if err := h.Cancel(9999); !errors.Is(err, errUnknownOrder) {
		t.Fatalf("bogus cancel = %v, want errUnknownOrder", err)
	}
	if h.InFlight() != 0 {
		t.Fatalf("in-flight %d after cancel", h.InFlight())
	}
	h.Close()
	m, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if m.Canceled != 1 {
		t.Fatalf("metrics canceled = %d, want 1", m.Canceled)
	}
	// After the session, Cancel reports the session gone.
	if err := h.Cancel(id); !errors.Is(err, ErrServeFinished) {
		t.Fatalf("post-session cancel = %v, want ErrServeFinished", err)
	}
}
