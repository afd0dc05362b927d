package shard

import (
	"fmt"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// ID names one shard of a partitioned runtime, dense in [0, Shards).
type ID int

// Partition is a deterministic assignment of every grid region to
// exactly one shard, in contiguous row-major stripes: each shard's
// territory is a horizontal band of the city, so frontiers are short
// and most of a rider's patience radius stays inside one shard.
type Partition struct {
	grid  *geo.Grid
	owner []ID // region -> shard
}

// NewWeightedPartition splits grid's regions across n shards balancing
// cumulative weight: the row-major sweep cuts a new stripe each time
// the running weight passes the next 1/n of the total. weights[k] is
// region k's expected load (OrderWeights over the trace); non-positive
// weights are fine — such regions ride along with their stripe — but
// some region must carry load. Every shard is guaranteed at least one
// region, and the assignment is deterministic for a fixed (grid, n,
// weights). It fails when n is not in [1, NumRegions]: a shard with no
// territory could never be routed to, which silently strands orders.
//
// Weighting is what makes sharding effective on hotspot-concentrated
// cities: equal-area stripes put one shard on 50% of the demand and
// another on 1%, so the hot shard's batches stay as large as a single
// engine's and nothing is gained.
func NewWeightedPartition(grid *geo.Grid, n int, weights []float64) (*Partition, error) {
	r := grid.NumRegions()
	if n < 1 || n > r {
		return nil, fmt.Errorf("shard: %d shards for %d regions (want 1..%d)", n, r, r)
	}
	if len(weights) != r {
		return nil, fmt.Errorf("shard: %d weights for %d regions", len(weights), r)
	}
	total := 0.0
	for _, w := range weights {
		total += max(w, 0)
	}
	if total <= 0 {
		return nil, fmt.Errorf("shard: weights carry no load")
	}

	p := &Partition{grid: grid, owner: make([]ID, r)}
	acc := 0.0
	s, size := 0, 0 // the current shard and the regions dealt to it
	for k := 0; k < r; k++ {
		// Advance to the next shard once the running weight has covered
		// this shard's 1/n share — never leaving the current shard
		// empty, never past the last shard, and advancing by force when
		// exactly enough regions remain to hand every remaining shard
		// one (which guarantees no shard ends up without territory).
		advance := s < n-1 && size > 0 &&
			acc >= total*float64(s+1)/float64(n)
		if n-1-s >= r-k {
			advance = true
		}
		if advance {
			s, size = s+1, 0
		}
		p.owner[k] = ID(s)
		size++
		acc += max(weights[k], 0)
	}
	return p, nil
}

// Owner returns the shard owning a region. Invalid regions (including
// geo.InvalidRegion) map to shard 0 so out-of-grid points — which the
// engine clamps into the grid anyway — always have a home.
func (p *Partition) Owner(region geo.RegionID) ID {
	if region < 0 || int(region) >= len(p.owner) {
		return 0
	}
	return p.owner[region]
}

// OwnerOf returns the shard owning the region containing p, after the
// same boundary clamp the engine applies to order endpoints.
func (p *Partition) OwnerOf(pt geo.Point) ID {
	return p.Owner(p.grid.Region(p.grid.Bounds().Clamp(pt)))
}

// OrderWeights counts each region's pickups in a trace — the
// NewWeightedPartition weights for a replay.
func OrderWeights(grid *geo.Grid, orders []trace.Order) []float64 {
	w := make([]float64, grid.NumRegions())
	for _, o := range orders {
		if k := grid.Region(grid.Bounds().Clamp(o.Pickup)); k >= 0 {
			w[k]++
		}
	}
	return w
}
