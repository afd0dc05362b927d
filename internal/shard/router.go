package shard

import (
	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// BoundaryPolicy decides where an order whose patience radius crosses a
// shard frontier is admitted.
type BoundaryPolicy int

const (
	// StrictOwnership always admits an order to the shard owning its
	// pickup region. Cheapest and fully deterministic from the trace
	// alone, at the cost of reneges when the owner's frontier is
	// supply-starved while a neighbour has an idle driver in reach.
	StrictOwnership BoundaryPolicy = iota
	// CandidateBorrow admits frontier orders to a neighbouring shard
	// when the owner currently has no available driver within the
	// rider's patience radius but another shard covering that radius
	// does — borrowing candidate supply at batch-build time. Interior
	// orders (radius inside the owner's territory) always stay home.
	CandidateBorrow
)

// String names the policy for logs and stats payloads.
func (p BoundaryPolicy) String() string {
	switch p {
	case CandidateBorrow:
		return "candidate-borrow"
	default:
		return "strict-ownership"
	}
}

// SupplyProbe answers how many available drivers a shard currently has
// within a radius of a point. The runtime implements it over each
// engine's spatial index; probes are consulted while routing, at the
// top of a round.
type SupplyProbe interface {
	AvailableWithin(p geo.Point, radiusMeters float64) int
}

// Router admits live orders to shards. It is not safe for concurrent
// use; the runtime routes on the goroutine that runs the session.
type Router struct {
	part   *Partition
	policy BoundaryPolicy
	// radiusSpeed converts remaining patience seconds into the same
	// search radius the engine uses for candidate drivers
	// (sim.Config.RadiusSpeedMPS).
	radiusSpeed float64
	// probes are per-shard supply probes, required for CandidateBorrow.
	probes []SupplyProbe
}

// NewRouter builds a router over a partition. probes may be nil for
// StrictOwnership; CandidateBorrow without probes degrades to strict.
func NewRouter(part *Partition, policy BoundaryPolicy, radiusSpeedMPS float64, probes []SupplyProbe) *Router {
	return &Router{part: part, policy: policy, radiusSpeed: radiusSpeedMPS, probes: probes}
}

// Route returns the shard that should admit o at engine time now, and
// whether the order was borrowed (admitted somewhere other than the
// owner of its pickup region).
func (r *Router) Route(o trace.Order, now float64) (ID, bool) {
	grid := r.part.Grid()
	pickup := grid.Bounds().Clamp(o.Pickup)
	owner := r.part.Owner(grid.Region(pickup))
	if r.policy != CandidateBorrow || r.probes == nil {
		return owner, false
	}

	slack := o.Deadline - now
	if slack <= 0 {
		return owner, false // expiring either way; keep it home
	}
	radius := slack * r.radiusSpeed

	// Which shards does the patience radius reach? Walk the regions the
	// radius intersects — the same geometry the engine's candidate
	// search uses — and collect their owners in ascending shard order.
	reached := make(map[ID]bool)
	for _, k := range grid.RegionsWithin(pickup, radius) {
		reached[r.part.Owner(k)] = true
	}
	if len(reached) <= 1 {
		return owner, false // interior order: radius stays home
	}
	// The owner keeps the order whenever it has any candidate in reach.
	if r.probes[owner].AvailableWithin(pickup, radius) > 0 {
		return owner, false
	}
	// Borrow from the reachable shard with the deepest supply; ties
	// break to the lowest shard id for determinism.
	best, bestSupply := owner, 0
	for s := ID(0); int(s) < r.part.NumShards(); s++ {
		if s == owner || !reached[s] {
			continue
		}
		if supply := r.probes[s].AvailableWithin(pickup, radius); supply > bestSupply {
			best, bestSupply = s, supply
		}
	}
	return best, best != owner
}

// Partition exposes the router's partition.
func (r *Router) Partition() *Partition { return r.part }

// Policy exposes the router's boundary policy.
func (r *Router) Policy() BoundaryPolicy { return r.policy }
