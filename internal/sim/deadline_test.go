package sim

import (
	"context"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// These tests pin the deadline-boundary semantics across every check
// that touches it: an order whose Deadline equals the batch time is
// still dispatchable (renege uses strict <, feasibility uses strict >),
// and only a deadline strictly in the past reneges.

// TestDeadlineBoundaryDispatchable: Deadline == now with a driver at
// the pickup (zero pickup cost) must serve, through the regular
// candidate path — zero slack means a zero search radius, which still
// includes co-located drivers.
func TestDeadlineBoundaryDispatchable(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 6, Pickup: pickup,
		Dropoff:  offset(pickup, 1500),
		Deadline: 6, // exactly the t=6 batch (Delta 3)
	}}
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	e := New(cfg, orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 || m.Reneged != 0 {
		t.Fatalf("deadline==now order: served=%d reneged=%d, want 1/0", m.Served, m.Reneged)
	}
	if r := rec.rider(0); r.PickedAt != 6 {
		t.Fatalf("picked at %v, want exactly the deadline batch t=6", r.PickedAt)
	}
}

// TestDeadlineBoundaryIgnorePickup: the UPPER-style IgnorePickup path
// must agree — a Deadline == now rider is assignable.
func TestDeadlineBoundaryIgnorePickup(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 6, Pickup: pickup,
		Dropoff:  offset(pickup, 1500),
		Deadline: 6,
	}}
	e := New(simpleConfig(), orders, []geo.Point{offset(pickup, 20000)})
	m, err := e.Run(context.Background(), funcDispatcher(func(ctx *Context) []Assignment {
		if len(ctx.Riders) == 0 || len(ctx.Drivers) == 0 {
			return nil
		}
		return []Assignment{{R: 0, D: 0, IgnorePickup: true}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 {
		t.Fatalf("IgnorePickup at deadline boundary: served=%d, want 1", m.Served)
	}
}

// TestDeadlineBoundaryRenege: the rider expires only once the deadline
// is strictly past — at the batch after the boundary, not at it.
func TestDeadlineBoundaryRenege(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 6, Pickup: pickup,
		Dropoff:  offset(pickup, 1500),
		Deadline: 6,
	}}
	var expiredAt float64 = -1
	cfg := simpleConfig()
	cfg.Observer = ObserverFuncs{Expired: func(e ExpiredEvent) { expiredAt = e.Now }}
	e := New(cfg, orders, []geo.Point{pickup})
	m, err := e.Run(context.Background(), noop{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reneged != 1 {
		t.Fatalf("reneged=%d, want 1 under noop", m.Reneged)
	}
	// Still waiting at the t=6 boundary batch; expired at t=9.
	if expiredAt != 9 {
		t.Fatalf("expired at t=%v, want 9 (the first batch strictly past the deadline)", expiredAt)
	}
}

// TestDeadlineBoundaryPairFeasibility: buildContext keeps the exact
// now+cost == Deadline pair and drops the first infeasible one.
func TestDeadlineBoundaryPairFeasibility(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 3, Pickup: pickup,
		Dropoff:  offset(pickup, 1500),
		Deadline: 6,
	}}
	e := NewWithSource(simpleConfig(), NewSliceSource(orders), []geo.Point{pickup})
	e.admitOrders(6)
	ctx := e.buildContext(6)
	if len(ctx.Pairs) != 1 || ctx.Pairs[0].PickupCost != 0 {
		t.Fatalf("zero-slack pair dropped: %v", ctx.Pairs)
	}
	if e.apply(6, ctx, []Assignment{{R: 0, D: 0}}) != nil {
		t.Fatal("apply rejected the boundary assignment")
	}
}
