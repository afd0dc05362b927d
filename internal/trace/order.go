package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mrvd/internal/geo"
)

// OrderID identifies one ride request.
type OrderID int32

// Order is one ride request: the paper's impatient rider r_i with posting
// time t_i, source s_i, destination e_i, and pickup deadline tau_i.
// Times are seconds from the start of the simulated day.
type Order struct {
	ID       OrderID
	PostTime float64   // t_i: when the request reaches the platform
	Pickup   geo.Point // s_i
	Dropoff  geo.Point // e_i
	Deadline float64   // tau_i: absolute latest pickup time; after this the rider reneges
}

// Valid performs structural sanity checks on a single order: finite
// times and coordinates, a non-negative post time, and a deadline no
// earlier than it.
func (o Order) Valid() error {
	for _, v := range []float64{o.PostTime, o.Deadline, o.Pickup.Lng, o.Pickup.Lat, o.Dropoff.Lng, o.Dropoff.Lat} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("trace: order %d has non-finite time or coordinate %v", o.ID, v)
		}
	}
	if o.PostTime < 0 {
		return fmt.Errorf("trace: order %d has negative post time %v", o.ID, o.PostTime)
	}
	if o.Deadline < o.PostTime {
		return fmt.Errorf("trace: order %d deadline %v precedes post time %v",
			o.ID, o.Deadline, o.PostTime)
	}
	return nil
}

// SortByPostTime sorts orders in place by posting time, breaking ties by
// id so replay order is deterministic. The sort is not stable: orders
// with the same post time and the same id end in an order fixed by the
// input's (the one sort.Slice with the same less function gives, as both
// run the same pattern-defeating quicksort), not in their input order.
func SortByPostTime(orders []Order) {
	slices.SortFunc(orders, func(a, b Order) int {
		if a.PostTime != b.PostTime {
			if a.PostTime < b.PostTime {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// CountPerSlot buckets orders by pickup region and time slot, producing
// the [slot][region] count matrix the demand predictors train on.
// slotSeconds is the slot width (the paper uses 30-minute slots);
// horizon is the trace length in seconds.
func CountPerSlot(orders []Order, grid *geo.Grid, slotSeconds, horizon float64) [][]int {
	numSlots := int(horizon/slotSeconds) + 1
	counts := make([][]int, numSlots)
	for i := range counts {
		counts[i] = make([]int, grid.NumRegions())
	}
	for _, o := range orders {
		slot := int(o.PostTime / slotSeconds)
		if slot < 0 || slot >= numSlots {
			continue
		}
		r := grid.Region(o.Pickup)
		if r == geo.InvalidRegion {
			continue
		}
		counts[slot][r]++
	}
	return counts
}
