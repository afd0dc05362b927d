package dispatch

import (
	"sort"

	"mrvd/internal/geo"
	"mrvd/internal/sim"
)

// POLAR reimplements the prediction-guided baseline of Tong et al.
// (VLDB 2017): an offline "blueprint" assignment between the predicted
// per-region driver supply and rider demand of the scheduling window,
// used online to bias each batch's matching toward blueprint-consistent
// region pairs. Simplifications: the blueprint is a greedy
// transportation solution over region pairs; the original solves a flow
// on a finer grid.
type POLAR struct {
	blueprintAt float64
	quota       map[[2]geo.RegionID]int
	haveRun     bool
}

// Name implements sim.Dispatcher.
func (p *POLAR) Name() string { return "POLAR" }

const (
	// polarGuidanceBonus is the score boost a pair receives when the
	// blueprint routes supply from the driver's region to the rider's
	// region: half an hour of trip value.
	polarGuidanceBonus = 1800
	// polarRebuildEvery is how often (seconds) the blueprint is
	// recomputed.
	polarRebuildEvery = 300
)

// rebuildBlueprint computes the region-level expected assignment: supply
// S_i = available + predicted rejoining drivers of region i, demand
// D_j = waiting + predicted riders of region j. Region pairs are
// considered in descending blueprint weight (demand pull minus travel
// penalty) and allocated min(remaining supply, remaining demand) — a
// greedy transportation solution.
func (p *POLAR) rebuildBlueprint(ctx *sim.Context) {
	n := ctx.Grid.NumRegions()
	supply := make([]int, n)
	demand := make([]int, n)
	for k := 0; k < n; k++ {
		supply[k] = ctx.AvailablePerRegion[k] + ctx.PredictedDrivers(geo.RegionID(k))
		demand[k] = ctx.WaitingPerRegion[k] + ctx.PredictedRiders(geo.RegionID(k))
	}
	type regionPair struct {
		i, j   geo.RegionID
		weight float64
	}
	var pairs []regionPair
	// Restrict to region pairs within a feasibility radius: blueprint
	// legs longer than ~2 regions cannot beat a rider's patience anyway.
	for i := 0; i < n; i++ {
		if supply[i] == 0 {
			continue
		}
		ci := ctx.Grid.Center(geo.RegionID(i))
		for j := 0; j < n; j++ {
			if demand[j] == 0 {
				continue
			}
			cj := ctx.Grid.Center(geo.RegionID(j))
			d := geo.Equirect(ci, cj)
			if d > 6000 {
				continue
			}
			pairs = append(pairs, regionPair{
				i: geo.RegionID(i), j: geo.RegionID(j),
				weight: float64(demand[j]) - d/1000,
			})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].weight != pairs[b].weight {
			return pairs[a].weight > pairs[b].weight
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	p.quota = make(map[[2]geo.RegionID]int)
	remS := append([]int(nil), supply...)
	remD := append([]int(nil), demand...)
	for _, rp := range pairs {
		q := remS[rp.i]
		if remD[rp.j] < q {
			q = remD[rp.j]
		}
		if q <= 0 {
			continue
		}
		p.quota[[2]geo.RegionID{rp.i, rp.j}] += q
		remS[rp.i] -= q
		remD[rp.j] -= q
	}
	p.blueprintAt = ctx.Now
	p.haveRun = true
}

// Assign implements sim.Dispatcher: greedy over valid pairs scored by
// trip value plus the blueprint guidance bonus, consuming quota as pairs
// commit.
func (p *POLAR) Assign(ctx *sim.Context) []sim.Assignment {
	if !p.haveRun || ctx.Now-p.blueprintAt >= polarRebuildEvery {
		p.rebuildBlueprint(ctx)
	}
	type scored struct {
		idx   int32
		score float64
	}
	items := make([]scored, len(ctx.Pairs))
	for i, pr := range ctx.Pairs {
		key := [2]geo.RegionID{ctx.DriverRegion[pr.D], ctx.RiderRegion[pr.R]}
		s := pr.TripCost - pr.PickupCost
		if p.quota[key] > 0 {
			s += polarGuidanceBonus
		}
		items[i] = scored{idx: int32(i), score: s}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].score != items[b].score {
			return items[a].score > items[b].score
		}
		return items[a].idx < items[b].idx
	})
	usedR := make([]bool, len(ctx.Riders))
	usedD := make([]bool, len(ctx.Drivers))
	var out []sim.Assignment
	for _, it := range items {
		pr := ctx.Pairs[it.idx]
		if usedR[pr.R] || usedD[pr.D] {
			continue
		}
		usedR[pr.R] = true
		usedD[pr.D] = true
		out = append(out, sim.Assignment{R: pr.R, D: pr.D})
		key := [2]geo.RegionID{ctx.DriverRegion[pr.D], ctx.RiderRegion[pr.R]}
		if p.quota[key] > 0 {
			p.quota[key]--
		}
	}
	return out
}
