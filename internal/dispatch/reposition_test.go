package dispatch

import (
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/sim"
)

func TestQueueRepositionMovesTowardHotNeighbor(t *testing.T) {
	ctx := buildTestContext()
	// Driver sits in a dead region (index 0: no demand) adjacent to the
	// hot region we boost below.
	grid := ctx.Grid
	cur := geo.RegionID(0)
	neighbors := grid.Neighbors(cur)
	hot := neighbors[0]
	predicted(ctx).riders[hot] = 100

	q := &QueueReposition{MinGain: 1}
	target, ok := q.Target(ctx, &sim.Driver{Pos: grid.Center(cur)}, cur)
	if !ok {
		t.Fatal("no reposition proposed out of a dead region next to a hot one")
	}
	if got := grid.Region(target); got != hot {
		t.Errorf("reposition target region %v, want hot neighbour %v", got, hot)
	}
}

func TestQueueRepositionStaysWhenAlreadyBest(t *testing.T) {
	ctx := buildTestContext()
	// Make the driver's own region the hottest around.
	cur := geo.RegionID(5)
	predicted(ctx).riders[cur] = 200
	q := &QueueReposition{}
	if _, ok := q.Target(ctx, &sim.Driver{Pos: ctx.Grid.Center(cur)}, cur); ok {
		t.Error("proposed a move away from the best region")
	}
}

func TestQueueRepositionRespectsMinGain(t *testing.T) {
	ctx := buildTestContext()
	cur := geo.RegionID(0)
	hot := ctx.Grid.Neighbors(cur)[0]
	// Both regions get demand; the neighbour is only slightly better.
	predicted(ctx).riders[cur] = 50
	predicted(ctx).riders[hot] = 52
	q := &QueueReposition{MinGain: 1e9}
	if _, ok := q.Target(ctx, &sim.Driver{Pos: ctx.Grid.Center(cur)}, cur); ok {
		t.Error("moved for a gain below MinGain")
	}
}

func TestQueueRepositionInvalidRegion(t *testing.T) {
	ctx := buildTestContext()
	q := &QueueReposition{}
	if _, ok := q.Target(ctx, &sim.Driver{}, geo.InvalidRegion); ok {
		t.Error("proposed a move from an invalid region")
	}
}

func TestQueueRepositionMaxHops(t *testing.T) {
	ctx := buildTestContext()
	cur := geo.RegionID(0)
	// Heat a region two hops away; with MaxHops=1 it must be invisible.
	far := geo.RegionID(2)
	predicted(ctx).riders[far] = 500
	q1 := &QueueReposition{MaxHops: 1, MinGain: 1}
	if tgt, ok := q1.Target(ctx, &sim.Driver{}, cur); ok && ctx.Grid.Region(tgt) == far {
		t.Error("MaxHops=1 reached a two-hop region")
	}
	q2 := &QueueReposition{MaxHops: 2, MinGain: 1}
	if tgt, ok := q2.Target(ctx, &sim.Driver{}, cur); !ok || ctx.Grid.Region(tgt) != far {
		t.Errorf("MaxHops=2 did not reach the hot two-hop region (ok=%v)", ok)
	}
}
