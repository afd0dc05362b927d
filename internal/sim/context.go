package sim

import (
	"cmp"
	"math"
	"slices"

	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/roadnet"
)

// Context is the batch snapshot handed to a Dispatcher: the waiting
// riders, available drivers, precomputed valid pairs, per-region counts,
// and the demand-supply predictions for the scheduling window
// [Now, Now+TC].
//
// Lifetime: the engine allocates the Context itself fresh every batch
// (a *Context identifies its batch, so per-batch caches may key on it)
// but every slice it carries and the Forecast's per-region memo live
// in the engine and are overwritten by the next batch. A Context and
// everything reachable from it are valid only until the call it was
// passed to returns; copy what must outlive that.
type Context struct {
	Now  float64
	TC   float64 // scheduling window length t_c in seconds
	Grid *geo.Grid
	// Coster prices travel for what-if costs the batch didn't cover;
	// every valid pair already carries its two legs — prefer a Pair's
	// costs, or PickupCost, over calling Coster.Cost in inner loops.
	Coster roadnet.Coster

	// Riders are the batch's waiting riders; Drivers its available
	// drivers. Dispatchers must treat both as read-only.
	Riders  []*Rider
	Drivers []*Driver

	// Pairs are the valid dispatching pairs of Definition 3, grouped by
	// rider (ascending R, then ascending PickupCost).
	Pairs []Pair

	// WaitingPerRegion[k] = |R_k| and AvailablePerRegion[k] = |D_k|.
	WaitingPerRegion   []int
	AvailablePerRegion []int
	// Forecast answers the window predictions |^R_k| and |^D_k|, read
	// through PredictedRiders and PredictedDrivers; nil predicts zeros.
	Forecast Forecast

	// RiderRegion and DriverRegion cache each rider's pickup region and
	// driver's current region.
	RiderRegion  []geo.RegionID
	DriverRegion []geo.RegionID

	// PoolCapacity is the onboard capacity when pooling is enabled, 0
	// otherwise. PoolOptions are the batch's feasible shared-ride
	// insertions, grouped by rider (ascending R); pooling-aware
	// dispatchers score them against solo Pairs and commit one with
	// Assignment.Pool. Both are empty when pooling is off, so
	// pooling-unaware dispatchers run unchanged.
	PoolCapacity int
	PoolOptions  []PoolOption
}

// Forecast is a batch's demand-supply predictions for the scheduling
// window [Now, Now+TC], region by region. The engine's Forecast computes
// a region's value on the first read of that region in the batch and
// keeps it for the rest of the batch, so a batch pays only for the
// regions it reads; every read in the batch returns the value as of the
// batch's start, including reads after Assign (a Repositioner's).
type Forecast interface {
	// Riders returns |^R_k|: the riders predicted to post in region k in
	// the window (Config.PredictRiders).
	Riders(k geo.RegionID) int
	// Drivers returns |^D_k|: the busy drivers scheduled to rejoin in
	// region k in the window, known exactly from active trips.
	Drivers(k geo.RegionID) int
}

// PredictedRiders returns |^R_k|, the riders predicted to post in region
// k in the window; 0 without a Forecast.
func (ctx *Context) PredictedRiders(k geo.RegionID) int {
	if ctx.Forecast == nil {
		return 0
	}
	return ctx.Forecast.Riders(k)
}

// PredictedDrivers returns |^D_k|, the drivers scheduled to rejoin in
// region k in the window; 0 without a Forecast.
func (ctx *Context) PredictedDrivers(k geo.RegionID) int {
	if ctx.Forecast == nil {
		return 0
	}
	return ctx.Forecast.Drivers(k)
}

// PoolOption is one feasible shared-ride insertion the batch priced: a
// placement of rider R's pickup and dropoff into the active route plan
// of a busy pooled driver. Driver is the plan holder's fleet id — not
// an index into Context.Drivers, which lists only available drivers.
// Ins.Extra is the marginal seconds the insertion adds to the plan,
// the number to weigh against a solo pair's PickupCost.
type PoolOption struct {
	R      int32
	Driver DriverID
	Ins    pool.Insertion
}

// Dispatcher decides, for one batch, which valid pairs to serve
// (Algorithm 1 line 7). It must not retain ctx or any slice reachable
// from it past the return of Assign (see Context). The engine reads the
// returned slice before it calls Assign again and keeps no reference to
// it, so a dispatcher may return the same array batch after batch (IRG,
// SHORT and LS do).
type Dispatcher interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Assign returns a set of assignments. Each rider and each driver
	// may appear at most once; every (R, D) must come from ctx.Pairs
	// unless IgnorePickup is set.
	Assign(ctx *Context) []Assignment
}

// PickupCost returns the travel cost from driver slot d to rider r's
// pickup: the Pair's PickupCost when (r, d) is a valid pair of the
// batch — found in r's group of Pairs, at most maxCandidatesPerRider
// long — and otherwise a single-pair Coster query, which prices it
// bitwise the same.
func (ctx *Context) PickupCost(d, r int32) float64 {
	i, _ := slices.BinarySearchFunc(ctx.Pairs, r, func(p Pair, r int32) int { return cmp.Compare(p.R, r) })
	for ; i < len(ctx.Pairs) && ctx.Pairs[i].R == r; i++ {
		if ctx.Pairs[i].D == d {
			return ctx.Pairs[i].PickupCost
		}
	}
	return ctx.Coster.Cost(ctx.Drivers[d].Pos, ctx.Riders[r].Order.Pickup)
}

// TripCost returns rider r's trip cost. Every Pair and PoolOption
// already carries its rider's; any other rider's trip may be unpriced
// (NaN), and is priced here with one Coster query and kept on the Rider.
func (ctx *Context) TripCost(r int32) float64 {
	rider := ctx.Riders[r]
	if math.IsNaN(rider.TripCost) {
		rider.TripCost = ctx.Coster.Cost(rider.Order.Pickup, rider.Order.Dropoff)
	}
	return rider.TripCost
}
