package pool

import (
	"math"
	"testing"

	"mrvd/internal/geo"
)

// The tests price legs with a Manhattan metric over raw coordinates so
// every ETA and shift below is exact integer arithmetic.
func pt(x, y float64) geo.Point { return geo.Point{Lng: x, Lat: y} }

func manhattan(a, b geo.Point) float64 {
	return math.Abs(a.Lng-b.Lng) + math.Abs(a.Lat-b.Lat)
}

func identity(v float64) float64 { return v }

// soloPlan is the two-stop plan a fresh assignment commits: pickup of
// order 1 at x=0 (ETA 10, deadline 100), dropoff at x=100 (ETA 110).
func soloPlan() *Plan {
	return &Plan{Stops: []Stop{
		{Kind: PickupStop, Order: 1, Pos: pt(0, 0), ETA: 10, Deadline: 100},
		{Kind: DropoffStop, Order: 1, Pos: pt(100, 0), ETA: 110, Direct: 100},
	}}
}

func TestConfigGates(t *testing.T) {
	for cap, want := range map[int]bool{0: false, 1: false, 2: true, 4: true} {
		if got := (Config{Capacity: cap}).Enabled(); got != want {
			t.Errorf("Capacity %d Enabled() = %v, want %v", cap, got, want)
		}
	}
	if d := (Config{Capacity: 2}).Detour(); d != 300 {
		t.Errorf("default detour = %v, want 300", d)
	}
	if d := (Config{Capacity: 2, MaxDetourSeconds: 45}).Detour(); d != 45 {
		t.Errorf("explicit detour = %v, want 45", d)
	}
}

func TestBestEmptyPlan(t *testing.T) {
	if _, ok := Best(&Plan{}, Request{}, 2, 300, manhattan); ok {
		t.Fatal("Best found an insertion into an empty plan")
	}
}

// TestBestOnTheWayInsertionIsFree: a rider whose pickup and dropoff lie
// on the committed route costs zero extra seconds, and both new stops
// land between the existing pickup and dropoff (indices >= 1: the front
// stop is never displaced).
func TestBestOnTheWayInsertionIsFree(t *testing.T) {
	p := soloPlan()
	req := Request{Order: 2, Pickup: pt(40, 0), Dropoff: pt(60, 0), Trip: 20, Deadline: 60}
	ins, ok := Best(p, req, 2, 300, manhattan)
	if !ok {
		t.Fatal("no insertion found for an on-the-way rider")
	}
	want := Insertion{PickupIndex: 1, DropIndex: 1, PickupETA: 50, DropETA: 70, Extra: 0}
	if ins != want {
		t.Fatalf("ins = %+v, want %+v", ins, want)
	}

	p.Insert(req, ins, manhattan, identity)
	wantETAs := []float64{10, 50, 70, 110}
	if len(p.Stops) != 4 {
		t.Fatalf("plan has %d stops after insert, want 4", len(p.Stops))
	}
	for i, eta := range wantETAs {
		if p.Stops[i].ETA != eta {
			t.Fatalf("stop %d ETA = %v, want %v (plan %+v)", i, p.Stops[i].ETA, eta, p.Stops)
		}
	}
	if p.Stops[0].Order != 1 || p.Stops[0].Kind != PickupStop {
		t.Fatal("front stop displaced by the insertion")
	}
	if pos, end := p.End(); pos != pt(100, 0) || end != 110 {
		t.Fatalf("End() = %v, %v after a free insertion", pos, end)
	}
}

// TestBestDetourExactlyAtBound pins the non-strict feasibility
// comparisons: an insertion that puts an existing rider exactly at the
// detour bound is admitted; one epsilon tighter rejects it (and every
// alternative placement is infeasible too).
func TestBestDetourExactlyAtBound(t *testing.T) {
	// Dropoff 10 off-axis: the splice detours the existing rider by
	// exactly 2*10 = 20 seconds.
	req := Request{Order: 2, Pickup: pt(40, 0), Dropoff: pt(60, 10), Trip: 30, Deadline: 60}

	ins, ok := Best(soloPlan(), req, 2, 20, manhattan)
	if !ok {
		t.Fatal("insertion exactly at the detour bound rejected")
	}
	if ins.PickupIndex != 1 || ins.DropIndex != 1 || ins.Extra != 20 {
		t.Fatalf("at-bound ins = %+v, want pickup 1, drop 1, extra 20", ins)
	}

	if ins, ok := Best(soloPlan(), req, 2, 20-1e-9, manhattan); ok {
		t.Fatalf("insertion past the detour bound admitted: %+v", ins)
	}
}

// TestBestPickupDeadlineExactlyAtETA: a request whose deadline equals
// the earliest reachable pickup time to the second is still feasible.
func TestBestPickupDeadlineExactlyAtETA(t *testing.T) {
	req := Request{Order: 2, Pickup: pt(40, 0), Dropoff: pt(60, 0), Trip: 20, Deadline: 50}
	ins, ok := Best(soloPlan(), req, 2, 300, manhattan)
	if !ok || ins.PickupETA != 50 {
		t.Fatalf("deadline == pickup ETA rejected: ok=%v ins=%+v", ok, ins)
	}
	req.Deadline = 50 - 1e-9
	if ins, ok := Best(soloPlan(), req, 2, 300, manhattan); ok {
		t.Fatalf("deadline before pickup ETA admitted: %+v", ins)
	}
}

// TestBestShiftedPickupDeadlineAtBound: an insertion may shift a later
// un-picked pickup; the shifted ETA may land exactly on that stop's
// deadline but not past it.
func TestBestShiftedPickupDeadlineAtBound(t *testing.T) {
	mk := func(deadlineB float64) *Plan {
		return &Plan{Stops: []Stop{
			{Kind: PickupStop, Order: 1, Pos: pt(0, 0), ETA: 10, Deadline: 100},
			{Kind: PickupStop, Order: 2, Pos: pt(20, 0), ETA: 30, Deadline: deadlineB},
			{Kind: DropoffStop, Order: 1, Pos: pt(60, 0), ETA: 70, Direct: 60},
			{Kind: DropoffStop, Order: 2, Pos: pt(100, 0), ETA: 110, Direct: 80},
		}}
	}
	// The only feasible placement (see TestBestMidLegMultiStopPlan)
	// shifts order 2's pickup from ETA 30 to 90.
	req := Request{Order: 3, Pickup: pt(30, 0), Dropoff: pt(50, 0), Trip: 20, Deadline: 60}
	if _, ok := Best(mk(90), req, 2, 300, manhattan); !ok {
		t.Fatal("shift landing exactly on the pickup deadline rejected")
	}
	if ins, ok := Best(mk(90-1e-9), req, 2, 300, manhattan); ok {
		t.Fatalf("shift past the pickup deadline admitted: %+v", ins)
	}
}

// TestBestCapacityWalk: with capacity 1 the new rider cannot overlap the
// committed one, so the only feasible placement is strictly after the
// existing dropoff; capacity 2 unlocks the free on-the-way splice.
func TestBestCapacityWalk(t *testing.T) {
	req := Request{Order: 2, Pickup: pt(40, 0), Dropoff: pt(60, 0), Trip: 20, Deadline: 1000}
	ins, ok := Best(soloPlan(), req, 1, 300, manhattan)
	if !ok {
		t.Fatal("capacity 1: sequential append not found")
	}
	if ins.PickupIndex != 2 || ins.DropIndex != 2 {
		t.Fatalf("capacity 1 ins = %+v, want the post-dropoff append (2,2)", ins)
	}
	ins, ok = Best(soloPlan(), req, 2, 300, manhattan)
	if !ok || ins.PickupIndex != 1 || ins.Extra != 0 {
		t.Fatalf("capacity 2 ins = %+v, want the free overlap at index 1", ins)
	}
}

// TestBestMidLegMultiStopPlan inserts a third rider into the middle of
// a two-rider plan and checks the full spliced timeline, then cancels
// the inserted rider and checks the plan re-tightens to its exact
// pre-insertion ETAs.
func TestBestMidLegMultiStopPlan(t *testing.T) {
	p := &Plan{Stops: []Stop{
		{Kind: PickupStop, Order: 1, Pos: pt(0, 0), ETA: 10, Deadline: 100},
		{Kind: PickupStop, Order: 2, Pos: pt(20, 0), ETA: 30, Deadline: 200},
		{Kind: DropoffStop, Order: 1, Pos: pt(60, 0), ETA: 70, Direct: 60},
		{Kind: DropoffStop, Order: 2, Pos: pt(100, 0), ETA: 110, Direct: 80},
	}}
	req := Request{Order: 3, Pickup: pt(30, 0), Dropoff: pt(50, 0), Trip: 20, Deadline: 60}
	ins, ok := Best(p, req, 2, 300, manhattan)
	if !ok {
		t.Fatal("no feasible mid-plan insertion")
	}
	// Any placement keeping rider 3 onboard past order 2's pickup would
	// hold three riders at capacity 2, so the pickup-dropoff pair must
	// splice whole into the first leg.
	want := Insertion{PickupIndex: 1, DropIndex: 1, PickupETA: 40, DropETA: 60, Extra: 60}
	if ins != want {
		t.Fatalf("ins = %+v, want %+v", ins, want)
	}

	pickupAt, dropAt := p.Insert(req, ins, manhattan, identity)
	if pickupAt != 40 || dropAt != 60 {
		t.Fatalf("Insert realized (%v, %v), want (40, 60)", pickupAt, dropAt)
	}
	wantETAs := []float64{10, 40, 60, 90, 130, 170}
	for i, eta := range wantETAs {
		if p.Stops[i].ETA != eta {
			t.Fatalf("stop %d ETA = %v, want %v", i, p.Stops[i].ETA, eta)
		}
	}

	// Cancel the inserted rider: both stops leave, downstream legs
	// re-join, and the plan returns to its exact pre-insertion timeline.
	if !p.Cancel(3, manhattan) {
		t.Fatal("cancel of a not-yet-picked-up rider rejected")
	}
	wantETAs = []float64{10, 30, 70, 110}
	if len(p.Stops) != 4 {
		t.Fatalf("plan has %d stops after cancel, want 4", len(p.Stops))
	}
	for i, eta := range wantETAs {
		if p.Stops[i].ETA != eta {
			t.Fatalf("after cancel, stop %d ETA = %v, want %v", i, p.Stops[i].ETA, eta)
		}
	}
}

// TestCancelOnboardRiderRejected: once the pickup stop has been
// consumed the rider is in the car; Cancel refuses and leaves the plan
// untouched.
func TestCancelOnboardRiderRejected(t *testing.T) {
	p := &Plan{
		Stops:   []Stop{{Kind: DropoffStop, Order: 1, Pos: pt(100, 0), ETA: 110, Direct: 100, PickedAt: 10}},
		Onboard: 1,
	}
	if p.Cancel(1, manhattan) {
		t.Fatal("cancel of an onboard rider accepted")
	}
	if len(p.Stops) != 1 || p.Stops[0].ETA != 110 {
		t.Fatalf("rejected cancel mutated the plan: %+v", p.Stops)
	}
	if p.Cancel(99, manhattan) {
		t.Fatal("cancel of an unknown order accepted")
	}
}

// TestCancelFrontPickupLeavesViaPoint: the rider being driven to right
// now cancels; the in-flight leg keeps its committed arrival as an
// inert via-point while the rider's dropoff leaves the plan.
func TestCancelFrontPickupLeavesViaPoint(t *testing.T) {
	p := soloPlan()
	req := Request{Order: 2, Pickup: pt(40, 0), Dropoff: pt(60, 0), Trip: 20, Deadline: 60}
	ins, ok := Best(p, req, 2, 300, manhattan)
	if !ok {
		t.Fatal("setup: on-the-way insertion not found")
	}
	p.Insert(req, ins, manhattan, identity) // [p1@10 p2@50 d2@70 d1@110]

	if !p.Cancel(1, manhattan) {
		t.Fatal("cancel of the front-pickup rider rejected")
	}
	if len(p.Stops) != 3 {
		t.Fatalf("plan has %d stops, want 3 (via-point + rider 2)", len(p.Stops))
	}
	front := p.Stops[0]
	if !front.Canceled || front.Order != 1 || front.ETA != 10 {
		t.Fatalf("front stop not an inert via-point: %+v", front)
	}
	live := 0
	for _, s := range p.Stops {
		if !s.Canceled {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("%d stops still serve a rider, want 2 (via-point excluded)", live)
	}
	// Rider 2's stops keep their committed times: the in-flight leg was
	// not re-routed.
	if p.Stops[1].ETA != 50 || p.Stops[2].ETA != 70 {
		t.Fatalf("surviving stops retimed: %+v", p.Stops)
	}
	if pos, end := p.End(); pos != pt(60, 0) || end != 70 {
		t.Fatalf("End() = %v, %v, want (60,0), 70", pos, end)
	}
}

// TestInsertAppliesLegNoise: realized splice times flow through the leg
// perturbation while untouched downstream legs keep their committed
// durations shifted by the realized delta.
func TestInsertAppliesLegNoise(t *testing.T) {
	p := soloPlan()
	req := Request{Order: 2, Pickup: pt(40, 0), Dropoff: pt(60, 0), Trip: 20, Deadline: 60}
	ins, ok := Best(p, req, 2, 300, manhattan)
	if !ok {
		t.Fatal("setup: insertion not found")
	}
	double := func(v float64) float64 { return 2 * v }
	pickupAt, dropAt := p.Insert(req, ins, manhattan, double)
	// Every newly driven leg takes twice its estimate: 10+80, +40, +80.
	if pickupAt != 90 || dropAt != 130 {
		t.Fatalf("noisy realized times (%v, %v), want (90, 130)", pickupAt, dropAt)
	}
	if last := p.Stops[3].ETA; last != 210 {
		t.Fatalf("shifted dropoff ETA = %v, want 210", last)
	}
}
