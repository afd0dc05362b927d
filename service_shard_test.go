package mrvd

import (
	"context"
	"testing"

	"mrvd/internal/core"
	"mrvd/internal/sim"
)

var shardTestCity = NewCity(CityConfig{OrdersPerDay: 1500, Seed: 17})

func shardTestService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	base := []Option{
		WithCity(shardTestCity),
		WithFleet(40),
		WithHorizon(4 * 3600),
		WithPrediction(PredictNone, nil),
	}
	svc, err := NewService(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestWithShardsOneShardParity: the public API contract — the default
// (1-shard) Service.Run produces the same deterministic metrics as the
// bare-engine reference, Runner.RunSource, over the same instance. The
// 4 h horizon cuts the day trace short, so the reference's drain stop
// never fires and both run the same batches.
func TestWithShardsOneShardParity(t *testing.T) {
	svc := shardTestService(t)
	got, err := svc.Run(context.Background(), "LS")
	if err != nil {
		t.Fatal(err)
	}
	ref := svc.Runner()
	ls, err := core.NewDispatcher("LS", svc.Options().Seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunSource(context.Background(), ls, PredictNone, nil, sim.NewSliceSource(ref.Orders()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != want.Summary() {
		t.Fatalf("Service.Run diverges from the bare engine:\n  engine:  %+v\n  service: %+v",
			want.Summary(), got.Summary())
	}
}

// TestWithShardsRunDeterministic: a 4-shard service run reproduces
// exactly.
func TestWithShardsRunDeterministic(t *testing.T) {
	run := func() Summary {
		m, err := shardTestService(t, WithShards(4)).Run(context.Background(), "IRG")
		if err != nil {
			t.Fatal(err)
		}
		return m.Summary()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("4-shard service runs differ: %+v vs %+v", a, b)
	}
}

func TestWithShardsValidation(t *testing.T) {
	if _, err := NewService(WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	if _, err := NewService(WithShards(-2)); err == nil {
		t.Fatal("WithShards(-2) accepted")
	}
	if _, err := NewService(WithBoundaryPolicy(BoundaryPolicy(99))); err == nil {
		t.Fatal("unknown boundary policy accepted")
	}
}

// TestSweepSharded: a sharded sweep runs every cell on the partitioned
// runtime with deterministic results.
func TestSweepSharded(t *testing.T) {
	svc := shardTestService(t, WithShards(2))
	spec := SweepSpec{Algorithms: []string{"NEAR", "IRG"}, Workers: 2}
	a, err := svc.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("want 2 cells, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("cell %d errored: %v / %v", i, a[i].Err, b[i].Err)
		}
		if a[i].Metrics.Summary() != b[i].Metrics.Summary() {
			t.Fatalf("cell %d not deterministic across sharded sweeps", i)
		}
	}
}

// TestStartShardedSession: a sharded serve session accepts live orders
// through the router, resolves outcomes, and exposes per-shard stats.
func TestStartShardedSession(t *testing.T) {
	svc := shardTestService(t, WithShards(4), WithBoundaryPolicy(CandidateBorrow))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "NEAR", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		now := h.Clock()
		_, outcome, err := h.Submit(Order{
			PostTime: now,
			Deadline: now + 1800,
			Pickup:   Point{Lng: -73.98, Lat: 40.70 + float64(i)*0.01},
			Dropoff:  Point{Lng: -73.95, Lat: 40.75},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := <-outcome
		if out.State != sim.OrderAssigned && out.State != sim.OrderExpired {
			t.Fatalf("order %d: unexpected outcome %v", i, out.State)
		}
	}
	stats := h.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats returned %d entries, want 4", len(stats))
	}
	admitted, drivers := 0, 0
	for _, s := range stats {
		admitted += s.Admitted
		drivers += s.Drivers
	}
	if admitted != 8 {
		t.Fatalf("shards admitted %d orders, want 8", admitted)
	}
	if drivers != 40 {
		t.Fatalf("shards hold %d drivers, want the full fleet of 40", drivers)
	}
	h.Close()
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}

	// The default session is one shard holding the whole fleet and city.
	h2, err := shardTestService(t).Start(ctx, "NEAR", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := h2.ShardStats()
	if len(got) != 1 || got[0].Drivers != 40 || got[0].Regions != shardTestCity.Grid().NumRegions() {
		t.Fatalf("default session shard stats = %+v, want one shard with 40 drivers and all %d regions",
			got, shardTestCity.Grid().NumRegions())
	}
	h2.Stop()
	_, _ = h2.Result()
}
