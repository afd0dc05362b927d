package mrvd

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mrvd/internal/roadnet"
)

// TestRoadSessionCancelLeavesNoGoroutines cancels a road-priced
// peak-hour replay from an Observer a few batches in, after the coster
// has fanned pricing runs out to its workers: Run must stop with the
// context's error, and nothing it started — those workers included —
// may outlive it.
func TestRoadSessionCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 20
	batches := 0
	city, orders, starts := peakHourFixture()
	coster := roadnet.NewGraphCoster(roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 7}))
	svc, err := NewService(
		WithCity(city),
		WithOrders(orders, starts),
		WithFleet(len(starts)),
		WithHorizon(peakHourHorizon),
		WithCoster(coster),
		WithObserver(ObserverFuncs{BatchStart: func(BatchStartEvent) {
			if batches++; batches == cancelAt {
				cancel()
			}
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.Run(ctx, "IRG")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want context.Canceled", m, err)
	}
	if batches != cancelAt {
		t.Fatalf("ran %d batches, want the run to stop at the cancel in batch %d", batches, cancelAt)
	}
	if st := coster.Stats(); st.PartialTrees < 2 {
		t.Fatalf("only %d batched pricing runs before the cancel: no fan-out to check", st.PartialTrees)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}
