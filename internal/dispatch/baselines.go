package dispatch

import (
	"math/rand"
	"sort"

	"mrvd/internal/sim"
)

// greedyByPairOrder assigns pairs first-fit in the order produced by
// less.
func greedyByPairOrder(ctx *sim.Context, less func(a, b sim.Pair) bool) []sim.Assignment {
	idx := make([]int, len(ctx.Pairs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return less(ctx.Pairs[idx[i]], ctx.Pairs[idx[j]])
	})
	return firstFit(ctx, idx)
}

// firstFit assigns ctx.Pairs in the given index order, skipping pairs
// whose rider or driver is already taken.
func firstFit(ctx *sim.Context, order []int) []sim.Assignment {
	usedR := make([]bool, len(ctx.Riders))
	usedD := make([]bool, len(ctx.Drivers))
	var out []sim.Assignment
	for _, i := range order {
		p := ctx.Pairs[i]
		if usedR[p.R] || usedD[p.D] {
			continue
		}
		usedR[p.R] = true
		usedD[p.D] = true
		out = append(out, sim.Assignment{R: p.R, D: p.D})
	}
	return out
}

// LTG is the long-trip greedy baseline: orders with the highest revenue
// (trip cost) are assigned first.
type LTG struct{}

// Name implements sim.Dispatcher.
func (LTG) Name() string { return "LTG" }

// Assign implements sim.Dispatcher.
func (LTG) Assign(ctx *sim.Context) []sim.Assignment {
	return greedyByPairOrder(ctx, func(a, b sim.Pair) bool {
		if a.TripCost != b.TripCost {
			return a.TripCost > b.TripCost
		}
		return a.PickupCost < b.PickupCost
	})
}

// NEAR is the nearest-trip greedy baseline: the pair with the smallest
// pickup cost is assigned first, minimizing deadhead travel.
type NEAR struct{}

// Name implements sim.Dispatcher.
func (NEAR) Name() string { return "NEAR" }

// Assign implements sim.Dispatcher.
func (NEAR) Assign(ctx *sim.Context) []sim.Assignment {
	return greedyByPairOrder(ctx, func(a, b sim.Pair) bool {
		if a.PickupCost != b.PickupCost {
			return a.PickupCost < b.PickupCost
		}
		return a.TripCost > b.TripCost
	})
}

// RAND assigns valid pairs in uniformly random order.
type RAND struct {
	// Seed makes runs reproducible; the zero value is a valid seed.
	Seed int64
	rng  *rand.Rand
}

// Name implements sim.Dispatcher.
func (r *RAND) Name() string { return "RAND" }

// Assign implements sim.Dispatcher.
func (r *RAND) Assign(ctx *sim.Context) []sim.Assignment {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.Seed))
	}
	return firstFit(ctx, r.rng.Perm(len(ctx.Pairs)))
}

// UPPER is the paper's revenue upper bound, not a real dispatcher: each
// batch it serves the min(waiting, available) most expensive orders and
// ignores pickup distances entirely.
type UPPER struct{}

// Name implements sim.Dispatcher.
func (UPPER) Name() string { return "UPPER" }

// Assign implements sim.Dispatcher.
func (UPPER) Assign(ctx *sim.Context) []sim.Assignment {
	k := len(ctx.Riders)
	if len(ctx.Drivers) < k {
		k = len(ctx.Drivers)
	}
	if k == 0 {
		return nil
	}
	riders := make([]int32, len(ctx.Riders))
	for i := range riders {
		riders[i] = int32(i)
	}
	// A rider without a valid pair has no trip priced yet: ctx.TripCost
	// prices it.
	sort.Slice(riders, func(i, j int) bool {
		ti, tj := ctx.TripCost(riders[i]), ctx.TripCost(riders[j])
		if ti != tj {
			return ti > tj
		}
		return riders[i] < riders[j]
	})
	out := make([]sim.Assignment, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, sim.Assignment{R: riders[i], D: int32(i), IgnorePickup: true})
	}
	return out
}
