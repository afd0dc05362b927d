package pool

import (
	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// Config gates ride pooling. The zero value (and any Capacity <= 1)
// disables it: drivers carry one rider at a time and the engine's
// single-trip path runs unchanged.
type Config struct {
	// Capacity is the maximum number of riders onboard a vehicle at
	// once. Pooling activates at 2 or more; 0 or 1 keeps single-rider
	// dispatch byte-identical to a pooling-free build.
	Capacity int
	// MaxDetourSeconds bounds each rider's detour: the extra seconds
	// between their pickup and dropoff versus the direct trip estimate.
	// Every insertion is checked against the bound for the new rider and
	// for every rider already on the plan. Default 300 when pooling is
	// enabled.
	MaxDetourSeconds float64
}

// Enabled reports whether pooling is active.
func (c Config) Enabled() bool { return c.Capacity >= 2 }

// Detour returns the per-rider detour bound with its default applied.
func (c Config) Detour() float64 {
	if c.MaxDetourSeconds > 0 {
		return c.MaxDetourSeconds
	}
	return 300
}

// StopKind distinguishes the two stop types on a route plan.
type StopKind uint8

// Stop kinds.
const (
	PickupStop StopKind = iota
	DropoffStop
)

// Stop is one committed waypoint on a driver's route plan.
type Stop struct {
	Kind  StopKind
	Order trace.OrderID
	Pos   geo.Point
	// ETA is the committed arrival time at this stop in engine seconds.
	ETA float64
	// Deadline (pickup stops) is the latest feasible arrival at the
	// pickup — the order's deadline. Insertions that would shift this
	// stop past it are rejected.
	Deadline float64
	// Direct (dropoff stops) is the rider's direct pickup-to-dropoff
	// trip estimate, the baseline detours are measured against.
	Direct float64
	// PickedAt (dropoff stops) is the rider's realized pickup time,
	// written when the pickup stop is consumed. While the pickup is
	// still on the plan the planned pickup ETA is the reference instead.
	PickedAt float64
	// Canceled marks a pickup whose rider canceled while the driver was
	// already driving to it (it was the front stop). The stop stays as
	// an inert via-point so the in-flight leg keeps its committed
	// arrival time; processing it picks nobody up.
	Canceled bool
}

// Plan is a driver's ordered route of pending stops. Onboard counts
// riders picked up but not yet dropped off. Stops[0] is the leg the
// driver is currently driving: it is never retimed or removed by
// Best/Insert/Cancel (see the package comment).
type Plan struct {
	Stops   []Stop
	Onboard int
}

// End returns the plan's final position and completion time — where and
// when the driver becomes free if nothing more is inserted.
func (p *Plan) End() (geo.Point, float64) {
	s := p.Stops[len(p.Stops)-1]
	return s.Pos, s.ETA
}

// Request describes a new order proposed for insertion into a plan.
type Request struct {
	Order   trace.OrderID
	Pickup  geo.Point
	Dropoff geo.Point
	// Trip is the direct pickup-to-dropoff estimate (the rider's detour
	// baseline and fare).
	Trip float64
	// Deadline is the latest feasible pickup time.
	Deadline float64
}

// Insertion is one feasible placement of a request's pickup and dropoff
// into a plan, as found by Best. PickupIndex and DropIndex are
// positions in the original stop slice (both in [1, len(Stops)]): the
// pickup is inserted before the stop at PickupIndex, the dropoff before
// the stop at DropIndex (after the pickup when they are equal), and an
// index of len(Stops) appends.
type Insertion struct {
	PickupIndex int
	DropIndex   int
	// PickupETA and DropETA are the estimated arrival times of the two
	// new stops under the insertion.
	PickupETA float64
	DropETA   float64
	// Extra is the total seconds the insertion adds to the plan's
	// completion time — the marginal cost a pooling-aware dispatcher
	// scores against a solo pickup cost.
	Extra float64
}

// CostFn prices one travel leg in seconds.
type CostFn func(a, b geo.Point) float64

// Best finds the cheapest feasible insertion of req into p, or ok=false
// when none exists. Feasibility requires, with non-strict comparisons
// so a candidate exactly at a bound is admitted:
//
//   - the new pickup is reached by req.Deadline;
//   - no existing un-picked pickup is shifted past its deadline;
//   - every rider's detour (new and existing) stays within maxDetour of
//     their direct trip estimate;
//   - onboard occupancy never exceeds capacity at any point of the
//     spliced route.
//
// The front stop is exempt from re-evaluation: insertion positions
// start at index 1, so the leg the driver is currently driving is never
// altered.
func Best(p *Plan, req Request, capacity int, maxDetour float64, cost CostFn) (Insertion, bool) {
	n := len(p.Stops)
	if n == 0 {
		return Insertion{}, false
	}
	// Occupancy after each existing stop, for the capacity walk.
	occ := make([]int, n)
	c := p.Onboard
	for k, s := range p.Stops {
		switch {
		case s.Kind == PickupStop && !s.Canceled:
			c++
		case s.Kind == DropoffStop:
			c--
		}
		occ[k] = c
	}
	occBefore := func(k int) int {
		if k == 0 {
			return p.Onboard
		}
		return occ[k-1]
	}

	best := Insertion{}
	found := false
	for i := 1; i <= n; i++ {
		prev := p.Stops[i-1]
		legIn := cost(prev.Pos, req.Pickup)
		pickupETA := prev.ETA + legIn
		if pickupETA > req.Deadline {
			continue
		}
		// Occupancy with the new rider aboard from slot i: the car holds
		// occBefore(i)+1 right after the new pickup, and every existing
		// pickup between i and the dropoff slot adds on top of that.
		if occBefore(i)+1 > capacity {
			continue
		}
		for j := i; j <= n; j++ {
			ins, ok := evaluate(p, req, occ, i, j, legIn, pickupETA, capacity, maxDetour, cost)
			if !ok {
				continue
			}
			if !found || ins.Extra < best.Extra {
				best, found = ins, true
			}
		}
	}
	return best, found
}

// evaluate prices and checks one (pickup at i, dropoff at j) placement.
// legIn and pickupETA are precomputed by the caller.
func evaluate(p *Plan, req Request, occ []int, i, j int, legIn, pickupETA float64, capacity int, maxDetour float64, cost CostFn) (Insertion, bool) {
	n := len(p.Stops)
	var dropETA float64
	// shiftMid applies to original stops in [i, j); shiftTail to [j, n).
	var shiftMid, shiftTail float64
	switch {
	case j == i && i == n: // append pickup then dropoff
		dropETA = pickupETA + req.Trip
	case j == i: // adjacent pickup+dropoff spliced into one leg
		dropETA = pickupETA + req.Trip
		next := p.Stops[i]
		shiftTail = legIn + req.Trip + cost(req.Dropoff, next.Pos) - (next.ETA - p.Stops[i-1].ETA)
	default: // j > i, so i < n
		next := p.Stops[i]
		shiftMid = legIn + cost(req.Pickup, next.Pos) - (next.ETA - p.Stops[i-1].ETA)
		before := p.Stops[j-1]
		dropETA = before.ETA + shiftMid + cost(before.Pos, req.Dropoff)
		if j < n {
			after := p.Stops[j]
			shiftTail = shiftMid + cost(before.Pos, req.Dropoff) + cost(req.Dropoff, after.Pos) - (after.ETA - before.ETA)
		}
	}

	// Extra = new completion time minus old completion time.
	var extra float64
	if j == n {
		extra = dropETA - p.Stops[n-1].ETA
	} else {
		extra = shiftTail
	}
	if extra < 0 {
		// A non-metric coster could make a splice "free"; treat it as
		// zero-cost rather than a negative score.
		extra = 0
	}

	// The new rider's own constraints.
	if dropETA-pickupETA-req.Trip > maxDetour {
		return Insertion{}, false
	}

	// Shifted existing stops: pickup deadlines, rider detours, capacity.
	shiftAt := func(k int) float64 {
		if k < i {
			return 0
		}
		if k < j {
			return shiftMid
		}
		return shiftTail
	}
	newOnboardThrough := func(k int) bool { return k >= i && k < j } // new rider aboard while original stop k is served
	pickupRef := func(order trace.OrderID, picked float64) float64 {
		for m, s := range p.Stops {
			if s.Kind == PickupStop && s.Order == order {
				return s.ETA + shiftAt(m)
			}
		}
		return picked // pickup already consumed: the realized time
	}
	for k := i; k < n; k++ {
		s := p.Stops[k]
		switch {
		case s.Kind == PickupStop && !s.Canceled:
			if s.ETA+shiftAt(k) > s.Deadline {
				return Insertion{}, false
			}
			if newOnboardThrough(k) && occ[k]+1 > capacity {
				return Insertion{}, false
			}
		case s.Kind == DropoffStop:
			detour := s.ETA + shiftAt(k) - pickupRef(s.Order, s.PickedAt) - s.Direct
			if detour > maxDetour {
				return Insertion{}, false
			}
		}
	}
	return Insertion{
		PickupIndex: i,
		DropIndex:   j,
		PickupETA:   pickupETA,
		DropETA:     dropETA,
		Extra:       extra,
	}, true
}

// Insert splices req into p at the placement ins and returns the
// realized pickup and dropoff times. cost prices the new legs (the same
// function Best evaluated with, so estimates match bitwise); leg maps
// each newly driven leg's estimate to its realized duration — identity
// without travel noise, the scenario's perturbation with it. Downstream
// stops shift by the realized splice deltas; legs the insertion does
// not touch keep their committed durations.
func (p *Plan) Insert(req Request, ins Insertion, cost CostFn, leg func(float64) float64) (pickupAt, dropAt float64) {
	n := len(p.Stops)
	i, j := ins.PickupIndex, ins.DropIndex
	prev := p.Stops[i-1]
	legIn := leg(cost(prev.Pos, req.Pickup))
	pickupAt = prev.ETA + legIn

	var shiftMid, shiftTail float64
	switch {
	case j == i:
		dropAt = pickupAt + leg(req.Trip)
		if i < n {
			next := p.Stops[i]
			shiftTail = dropAt + leg(cost(req.Dropoff, next.Pos)) - next.ETA
		}
	default:
		next := p.Stops[i]
		shiftMid = pickupAt + leg(cost(req.Pickup, next.Pos)) - next.ETA
		before := p.Stops[j-1]
		dropAt = before.ETA + shiftMid + leg(cost(before.Pos, req.Dropoff))
		if j < n {
			after := p.Stops[j]
			shiftTail = dropAt + leg(cost(req.Dropoff, after.Pos)) - after.ETA
		}
	}

	out := make([]Stop, 0, n+2)
	out = append(out, p.Stops[:i]...)
	out = append(out, Stop{Kind: PickupStop, Order: req.Order, Pos: req.Pickup, ETA: pickupAt, Deadline: req.Deadline})
	for k := i; k < j; k++ {
		s := p.Stops[k]
		s.ETA += shiftMid
		out = append(out, s)
	}
	out = append(out, Stop{Kind: DropoffStop, Order: req.Order, Pos: req.Dropoff, ETA: dropAt, Direct: req.Trip})
	for k := j; k < n; k++ {
		s := p.Stops[k]
		s.ETA += shiftTail
		out = append(out, s)
	}
	p.Stops = out
	return pickupAt, dropAt
}

// Cancel removes order's stops from the plan: the standard "a canceled
// pooled rider removes only their stops" semantics. It returns false —
// and leaves the plan untouched — when the rider is already onboard
// (their pickup stop has been consumed) or not on the plan at all. A
// pickup that is the front stop is kept as an inert via-point instead
// of removed, preserving the in-flight leg; downstream stops tighten by
// the time the removed stops were costing, with unchanged legs keeping
// their committed durations. Cancel never empties a plan: the front
// stop always survives.
func (p *Plan) Cancel(order trace.OrderID, cost CostFn) bool {
	pi, di := -1, -1
	for k, s := range p.Stops {
		if s.Order != order {
			continue
		}
		switch s.Kind {
		case PickupStop:
			if !s.Canceled {
				pi = k
			}
		case DropoffStop:
			di = k
		}
	}
	if di < 0 || pi < 0 {
		return false // onboard (pickup consumed) or not on the plan
	}
	p.removeStop(di, cost)
	if pi == 0 {
		p.Stops[0].Canceled = true
		return true
	}
	p.removeStop(pi, cost)
	return true
}

// removeStop deletes the stop at k (k >= 1) and shifts later stops by
// the splice delta, re-joining the neighbours with a fresh leg cost.
func (p *Plan) removeStop(k int, cost CostFn) {
	if k == len(p.Stops)-1 {
		p.Stops = p.Stops[:k]
		return
	}
	a, b := p.Stops[k-1], p.Stops[k+1]
	delta := a.ETA + cost(a.Pos, b.Pos) - b.ETA
	p.Stops = append(p.Stops[:k], p.Stops[k+1:]...)
	for m := k; m < len(p.Stops); m++ {
		p.Stops[m].ETA += delta
	}
}
