package sim

import (
	"mrvd/internal/geo"
	"mrvd/internal/roadnet"
)

// batchArena is an engine's per-batch scratch, reused across batches:
// the backing arrays of everything a Context carries and of apply's
// double-booking marks. A steady-state batch allocates only its Context
// header — which is why a Context is valid only until the call it was
// passed to returns. The driver table (driverSlot, driverID, drivers,
// driverRegion, availablePerRegion) is not rebuilt per batch but
// carried over and patched from the index's change log.
type batchArena struct {
	// driverSlot maps a driver id to its slot in Context.Drivers, one
	// cell per driver of the fleet; driverID is its inverse, slot to
	// id, ascending. Every driver the table patch seats is stamped. The
	// cell of a driver that left the table is stale: candidates only
	// come from the index of available drivers, so only the patch reads
	// one, and it checks the cell against driverID.
	driverSlot, driverID []int32
	// changed receives the index's change log each batch and tail the
	// ids of the driver table's part (driverSlot, driverID, drivers,
	// driverRegion, availablePerRegion) the patch merges it into. See
	// Engine.patchDriverTable.
	changed, tail []int32

	// waitingPerRegion counts riderRegion, the batch's riders; the next
	// batch uncounts them before counting its own.
	waitingPerRegion, availablePerRegion []int

	drivers      []*Driver
	driverRegion []geo.RegionID
	riders       []*Rider
	riderRegion  []geo.RegionID

	// cand holds every waiting rider's candidate drivers back to back,
	// rider r's at cand[r.candLo:r.candHi]. prevCand is the last build's
	// cand, whose lists this build's riders carry forward
	// (Engine.candidates); the two swap every build. drained[id] is the
	// number of the last build whose change log named driver id, and
	// joined lists the drivers this build's log names that the index
	// holds.
	cand, prevCand []geo.Neighbor
	drained        []uint32
	joined         []int32
	// near is the pair loop's heap over one rider's candidates. It is a
	// copy: heapq.Pop overwrites the cells it vacates, and the list must
	// reach the next build intact. With a batch coster, candAt[id] is
	// the index in cand, and in pairCost, of driver id's entry in the
	// rider's list.
	near   []geo.Neighbor
	candAt []int32
	// targets (rider pickups) and sources (unique candidate drivers'
	// positions) are the CostPairs call's columns and rows; sourceSlot is
	// each source's driver slot, and driverRow maps a driver slot to its
	// row, -1 when it is nobody's candidate — kept -1 everywhere but at
	// sourceSlot's cells, across batches, so a batch resets only those.
	targets, sources []geo.Point
	sourceSlot       []int32
	driverRow        []int32
	// A batch coster prices the candidate pairs in one CostPairs call:
	// pairSrc (source row) and pairTgt (rider) list them in cand's
	// order, pairCost receives their prices.
	pairSrc, pairTgt []int32
	pairCost         []float64
	pairs            []Pair

	// unpriced lists the riders whose trip the batch reads first: they
	// hold a valid pair or a pool candidate for the first time. pickups
	// and dropoffs are the trip chunk priceTrips is pricing.
	unpriced          []*Rider
	pickups, dropoffs []geo.Point

	// usedR and usedD mark what apply committed this batch: a cell equal
	// to stamp is taken, so bumping stamp clears both.
	usedR, usedD []int
	stamp        int
}

func newBatchArena(numRegions int) batchArena {
	return batchArena{
		waitingPerRegion:   make([]int, numRegions),
		availablePerRegion: make([]int, numRegions),
	}
}

// densePairs adapts a BatchCoster that has only Costs to the one
// CostPairs call buildContext makes: one dense matrix, the listed cells
// picked out.
type densePairs struct{ roadnet.BatchCoster }

func (d densePairs) CostPairs(sources, targets []geo.Point, src, tgt []int32, out []float64) {
	matrix := d.Costs(sources, targets)
	for k := range src {
		out[k] = matrix[src[k]][tgt[k]]
	}
}
