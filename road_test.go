package mrvd

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"testing"
	"time"

	"mrvd/internal/core"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// TestRoadCacheSizeMovesNoDecision replays the road-priced peak-hour
// fixture on the default coster, whose tree cache holds a tree for
// every node of the grid, and on one with CacheSize 8, which evicts
// constantly. The cache only decides how much Dijkstra work a cost
// takes, never its value, so both replays must reach the same Summary
// and leave every order in the same terminal state; the default run
// must evict nothing and settle strictly fewer nodes.
func TestRoadCacheSizeMovesNoDecision(t *testing.T) {
	city, orders, starts := peakHourFixture()
	graph := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 7})
	replay := func(coster *roadnet.GraphCoster) (pinned, map[trace.OrderID]string) {
		terminal := map[trace.OrderID]string{}
		r := core.NewRunnerWithOrders(core.Options{
			City: city, NumDrivers: len(starts), Delta: 5, TC: 1200,
			Horizon: peakHourHorizon, Seed: 9, Coster: coster,
			Observer: sim.ObserverFuncs{
				Assigned: func(e sim.AssignedEvent) {
					terminal[e.Rider.Order.ID] = fmt.Sprintf("assigned to %d", e.Driver)
				},
				Expired:  func(e sim.ExpiredEvent) { terminal[e.Rider.Order.ID] = "expired" },
				Canceled: func(e sim.CanceledEvent) { terminal[e.Rider.Order.ID] = "canceled" },
			},
		}, orders, starts)
		d, err := core.NewDispatcher("IRG", 9)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run(context.Background(), d, core.PredictOracle, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pin(m), terminal
	}

	def := roadnet.NewGraphCoster(graph)
	churn := roadnet.NewGraphCoster(graph)
	churn.CacheSize = 8
	defPin, defTerminal := replay(def)
	churnPin, churnTerminal := replay(churn)
	if defPin != churnPin {
		t.Errorf("cache size moved the replay:\n  default:      %#v\n  CacheSize 8:  %#v", defPin, churnPin)
	}
	if len(defTerminal) == 0 || !maps.Equal(defTerminal, churnTerminal) {
		t.Errorf("per-order terminal states differ: %d orders on the default coster, %d with CacheSize 8", len(defTerminal), len(churnTerminal))
	}
	ds, cs := def.Stats(), churn.Stats()
	t.Logf("default (CacheSize %d): settled %d, evictions %d; CacheSize 8: settled %d, evictions %d",
		def.CacheSize, ds.SettledNodes, ds.Evictions, cs.SettledNodes, cs.Evictions)
	if ds.Evictions != 0 {
		t.Errorf("default coster evicted %d trees, want 0", ds.Evictions)
	}
	if ds.SettledNodes >= cs.SettledNodes {
		t.Errorf("default coster settled %d nodes, want fewer than CacheSize 8's %d", ds.SettledNodes, cs.SettledNodes)
	}
}

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
