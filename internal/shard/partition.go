package shard

import (
	"fmt"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// ID names one shard of a partitioned runtime, dense in [0, NumShards).
type ID int

// Partition is a deterministic assignment of every grid region to
// exactly one shard. Regions are dealt in contiguous row-major stripes
// balanced within one region: with R regions and n shards, the first
// R%n shards own ceil(R/n) regions and the rest floor(R/n). Row-major
// contiguity keeps each shard's territory a horizontal band of the
// city, so frontiers are short and most of a rider's patience radius
// stays inside one shard.
type Partition struct {
	grid     *geo.Grid
	n        int
	owner    []ID             // region -> shard
	regions  [][]geo.RegionID // shard -> owned regions, ascending
	frontier []bool           // region -> has a 4-neighbour owned elsewhere
}

// NewPartition splits grid's regions across n shards in equal stripes:
// sizes are balanced within one region. It fails when n is not in
// [1, NumRegions]: a shard with no territory could never be routed to,
// which silently strands orders.
func NewPartition(grid *geo.Grid, n int) (*Partition, error) {
	return NewWeightedPartition(grid, n, nil)
}

// NewWeightedPartition splits grid's regions across n shards balancing
// cumulative weight instead of region count: the row-major sweep cuts a
// new stripe each time the running weight passes the next 1/n of the
// total. weights[k] is region k's expected load (demand intensity,
// historical pickup counts); non-positive weights are fine — such
// regions ride along with their stripe. A nil weights gives the
// uniform partition (sizes balanced within one region). Every shard is
// guaranteed at least one region, and the assignment is deterministic
// for a fixed (grid, n, weights).
//
// Weighting is what makes sharding effective on hotspot-concentrated
// cities: equal-area stripes put one shard on 50% of the demand and
// another on 1%, so the hot shard's batches stay as large as a single
// engine's and nothing is gained.
func NewWeightedPartition(grid *geo.Grid, n int, weights []float64) (*Partition, error) {
	if grid == nil {
		return nil, fmt.Errorf("shard: nil grid")
	}
	r := grid.NumRegions()
	if n < 1 || n > r {
		return nil, fmt.Errorf("shard: %d shards for %d regions (want 1..%d)", n, r, r)
	}
	if weights != nil && len(weights) != r {
		return nil, fmt.Errorf("shard: %d weights for %d regions", len(weights), r)
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	uniform := weights == nil || total <= 0
	if uniform {
		total = float64(r)
	}
	weightOf := func(k int) float64 {
		if uniform {
			return 1
		}
		if w := weights[k]; w > 0 {
			return w
		}
		return 0
	}

	p := &Partition{
		grid:     grid,
		n:        n,
		owner:    make([]ID, r),
		regions:  make([][]geo.RegionID, n),
		frontier: make([]bool, r),
	}
	acc := 0.0
	s := 0
	for k := 0; k < r; k++ {
		// Advance to the next shard once the running weight has covered
		// this shard's 1/n share — never leaving the current shard
		// empty, never past the last shard, and advancing by force when
		// exactly enough regions remain to hand every remaining shard
		// one (which guarantees no shard ends up without territory).
		advance := s < n-1 && len(p.regions[s]) > 0 &&
			acc >= total*float64(s+1)/float64(n)
		if n-1-s >= r-k {
			advance = true
		}
		if advance {
			s++
		}
		p.owner[k] = ID(s)
		p.regions[s] = append(p.regions[s], geo.RegionID(k))
		acc += weightOf(k)
	}
	for k := 0; k < r; k++ {
		for _, nb := range grid.Neighbors(geo.RegionID(k)) {
			if p.owner[nb] != p.owner[k] {
				p.frontier[k] = true
				break
			}
		}
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Partition) NumShards() int { return p.n }

// Grid returns the partitioned grid.
func (p *Partition) Grid() *geo.Grid { return p.grid }

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

// Regions returns the regions owned by one shard, ascending. The slice
// is owned by the partition; callers must not mutate it.
func (p *Partition) Regions(s ID) []geo.RegionID {
	if s < 0 || int(s) >= p.n {
		return nil
	}
	return p.regions[s]
}

// IsFrontier reports whether a region has at least one 4-neighbour
// owned by a different shard — the territory where a rider's patience
// radius may cross into another shard's supply.
func (p *Partition) IsFrontier(region geo.RegionID) bool {
	if region < 0 || int(region) >= len(p.frontier) {
		return false
	}
	return p.frontier[region]
}

// FrontierCount returns how many of a shard's regions border another
// shard (diagnostics for /v1/stats).
func (p *Partition) FrontierCount(s ID) int {
	n := 0
	for _, k := range p.Regions(s) {
		if p.frontier[k] {
			n++
		}
	}
	return n
}

// OrderWeights counts each region's pickups in a trace — the natural
// NewWeightedPartition weights for a replay, and a reasonable proxy
// for a live stream drawn from the same demand.
func OrderWeights(grid *geo.Grid, orders []trace.Order) []float64 {
	w := make([]float64, grid.NumRegions())
	for _, o := range orders {
		if k := grid.Region(grid.Bounds().Clamp(o.Pickup)); k >= 0 {
			w[k]++
		}
	}
	return w
}
