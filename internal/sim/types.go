package sim

import (
	"math"

	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/trace"
)

// DriverID indexes a driver in the fleet.
type DriverID int32

// DriverState is a driver's lifecycle phase.
type DriverState uint8

// Driver states: available (free to assign), busy (picking up or
// delivering a rider, or cruising to a reposition target), or departed
// (handed off to another engine by a sharded runtime's fleet
// re-homing; the local slot stays inert forever).
const (
	Available DriverState = iota
	Busy
	Departed
)

// Driver is one vehicle in the simulation.
type Driver struct {
	ID    DriverID
	State DriverState
	// Pos is the driver's location when available; while busy it is the
	// destination they will occupy on completion.
	Pos geo.Point
	// FreeAt is when a busy driver completes its current trip. For an
	// available driver it is the time it last became available (its
	// rejoin time), which anchors the idle ledger.
	FreeAt float64
	// Served counts completed orders.
	Served int
}

// RiderStatus is a rider's lifecycle phase.
type RiderStatus uint8

// Rider statuses.
const (
	WaitingStatus RiderStatus = iota
	AssignedStatus
	RenegedStatus
	// CanceledStatus marks a rider that canceled its order before
	// assignment — stochastically through the scenario's patience model
	// or explicitly through a CancelableSource.
	CanceledStatus
)

// Rider wraps an order with its runtime status and per-order constants:
// the pickup and destination regions and the pickup's scan geometry,
// computed at admission, and the trip cost, priced the first batch it is
// read. Status, Shared and Driver share one word.
type Rider struct {
	Order  trace.Order
	Status RiderStatus
	// Shared marks a rider committed through a pooled insertion into an
	// already-active route plan (as opposed to starting a trip of their
	// own). Always false when pooling is disabled.
	Shared bool
	// Driver is the assigned driver, valid when Status == AssignedStatus.
	Driver DriverID
	// TripCost is cost(s_i, e_i) in seconds under the run's coster — the
	// order's revenue at alpha = 1. It is NaN until a batch reads it:
	// the first batch the rider holds a valid pair or a pool option, or
	// on demand through Context.TripCost (UPPER, IgnorePickup commits).
	TripCost float64
	// PickupRegion and DestRegion are the regions of the pickup and
	// dropoff points (clamped into the grid).
	PickupRegion geo.RegionID
	DestRegion   geo.RegionID
	// PickedAt is when the assigned driver reaches the pickup point
	// (realized time: under travel noise it may differ from the
	// estimate the dispatch decision was planned with).
	PickedAt float64
	// CancelAt, when positive, is the time this rider will abandon the
	// order if still waiting — drawn at admission from the scenario's
	// patience model. 0 means the rider waits to the deadline.
	CancelAt float64
	// scan is the pickup's geometry prepared for the available-driver
	// index at admission: the pickup never moves.
	scan geo.Query
	// candLo and candHi delimit the rider's candidate drivers in the
	// arena's cand of the build numbered candBuild (0: no build yet),
	// which the next build carries forward (Engine.candidates);
	// candSorted is the length of the list's nearest-first prefix.
	candLo, candHi, candSorted int32
	candBuild                  uint32
}

// Pair is one valid rider-and-driver dispatching pair of Definition 3,
// precomputed per batch. R and D index Context.Riders and
// Context.Drivers.
type Pair struct {
	R, D       int32
	PickupCost float64 // seconds for the driver to reach the pickup
	TripCost   float64 // seconds from pickup to dropoff: the pair's revenue at alpha=1
	DestRegion geo.RegionID
}

// Assignment is a dispatcher's decision: serve rider R with driver D
// (indices into the batch Context). IgnorePickup is reserved for the
// UPPER bound pseudo-dispatcher, which the paper defines as serving the
// most expensive orders while ignoring pickup distances.
//
// When Pool is set the assignment is a shared-ride insertion instead:
// Option indexes Context.PoolOptions, R must match the option's rider,
// and D is ignored — the serving driver is the option's (busy) plan
// holder, not an available driver slot.
type Assignment struct {
	R, D         int32
	IgnorePickup bool
	Pool         bool
	Option       int32
}

// TravelRecord pairs one noisy assignment's estimated travel durations
// with the realized ones — the estimate-vs-realized error ledger of the
// stochastic-travel-time scenario. Records are only appended while
// ScenarioConfig.TravelNoise is active.
type TravelRecord struct {
	Order  trace.OrderID
	Driver DriverID
	// At is the batch time of the assignment.
	At float64
	// PickupEstimate/TripEstimate are the coster's planned durations;
	// PickupRealized/TripRealized are what the trip actually took.
	PickupEstimate float64
	PickupRealized float64
	TripEstimate   float64
	TripRealized   float64
}

// AbsError returns the total absolute estimate error of the record in
// seconds (pickup plus trip).
func (r TravelRecord) AbsError() float64 {
	return math.Abs(r.PickupRealized-r.PickupEstimate) + math.Abs(r.TripRealized-r.TripEstimate)
}

// IdleRecord pairs the model-estimated idle time at a driver's rejoin
// with the idle time that actually elapsed before its next assignment —
// one observation of Table 3.
type IdleRecord struct {
	Driver   DriverID
	Region   geo.RegionID
	RejoinAt float64
	Estimate float64 // queueing-model estimate captured at rejoin; NaN when no estimator installed
	Realized float64
}

// Metrics aggregates one simulation run.
type Metrics struct {
	// Revenue is the platform total: alpha * sum of served trip costs
	// (alpha = 1, Section 6.3, so revenue equals total serving seconds).
	Revenue float64
	// Served, Reneged and Canceled count terminal rider outcomes:
	// assigned a driver, expired past the deadline, or canceled by the
	// rider before assignment (scenario hazard or explicit cancel).
	Served   int
	Reneged  int
	Canceled int
	// Declines counts driver-declined assignments (non-terminal: the
	// rider returns to the waiting pool and may still be served).
	Declines int
	// TotalOrders is the trace size.
	TotalOrders int
	// Batches is how many batch rounds ran.
	Batches int
	// DispatchPhase holds the dispatcher's wall time per batch over
	// obs.DefBuckets: a fixed size, however many batches run.
	DispatchPhase obs.HistogramSnapshot
	// IdleRecords is the per-rejoin idle ledger (estimate vs realized).
	IdleRecords []IdleRecord
	// TravelRecords is the estimate-vs-realized travel-time ledger,
	// one record per assignment committed under travel noise.
	TravelRecords []TravelRecord
	// PickupSeconds sums driver travel to pickups (deadhead time,
	// realized under travel noise). For pooled insertions the
	// contribution is the rider's wait until pickup, which may include
	// serving another rider's stop on the way.
	PickupSeconds float64
	// SharedServed counts shared riders whose pooled trip completed
	// (dropoff reached); DetourSeconds sums their realized detours —
	// seconds between pickup and dropoff beyond the direct-trip
	// estimate. Both stay zero with pooling disabled.
	SharedServed  int
	DetourSeconds float64
	// PickedUp and DroppedOff count pooled route-plan stop completions;
	// zero with pooling disabled, and not part of Summary.
	PickedUp   int
	DroppedOff int
}

// Summary is the deterministic projection of Metrics: every field a
// repeated run with the same instance and dispatcher reproduces exactly,
// excluding wall-clock timings. Two runs of the same point — sequential
// or parallel, in any order — must produce identical Summaries, which is
// what Sweep's determinism contract is checked against.
type Summary struct {
	Revenue       float64
	Served        int
	Reneged       int
	Canceled      int
	Declines      int
	TotalOrders   int
	Batches       int
	PickupSeconds float64
	// IdleClosed counts closed idle-ledger entries; IdleSeconds sums
	// their realized idle times.
	IdleClosed  int
	IdleSeconds float64
	// TravelSamples counts estimate-vs-realized travel records;
	// TravelAbsErrSeconds sums their absolute errors.
	TravelSamples       int
	TravelAbsErrSeconds float64
	// SharedServed counts completed shared (pooled) trips and
	// DetourSeconds sums their realized detours; zero without pooling.
	SharedServed  int
	DetourSeconds float64
}

// Summary projects the run's deterministic outcomes.
func (m *Metrics) Summary() Summary {
	s := Summary{
		Revenue:       m.Revenue,
		Served:        m.Served,
		Reneged:       m.Reneged,
		Canceled:      m.Canceled,
		Declines:      m.Declines,
		TotalOrders:   m.TotalOrders,
		Batches:       m.Batches,
		PickupSeconds: m.PickupSeconds,
		SharedServed:  m.SharedServed,
		DetourSeconds: m.DetourSeconds,
	}
	for _, rec := range m.IdleRecords {
		s.IdleClosed++
		s.IdleSeconds += rec.Realized
	}
	for _, rec := range m.TravelRecords {
		s.TravelSamples++
		s.TravelAbsErrSeconds += rec.AbsError()
	}
	return s
}

// MeanAbsTravelErrorSeconds returns the mean absolute
// estimate-vs-realized travel error over the noise ledger, 0 without
// samples.
func (s Summary) MeanAbsTravelErrorSeconds() float64 {
	if s.TravelSamples == 0 {
		return 0
	}
	return s.TravelAbsErrSeconds / float64(s.TravelSamples)
}

// MeanIdleSeconds returns the mean realized idle time over closed
// ledger entries, 0 when none closed.
func (s Summary) MeanIdleSeconds() float64 {
	if s.IdleClosed == 0 {
		return 0
	}
	return s.IdleSeconds / float64(s.IdleClosed)
}

// AvgBatchSeconds returns the mean dispatcher wall time per batch, 0
// without batches.
func (m *Metrics) AvgBatchSeconds() float64 {
	if m.DispatchPhase.Count == 0 {
		return 0
	}
	return m.DispatchPhase.Mean()
}

// BatchSecondsQuantile returns the p-quantile (0 < p <= 1) of the
// per-batch dispatcher wall times, interpolated inside its bucket of
// obs.DefBuckets (within a factor of 2.5 above 1 µs), 0 without
// batches.
func (m *Metrics) BatchSecondsQuantile(p float64) float64 {
	if m.DispatchPhase.Count == 0 {
		return 0
	}
	return m.DispatchPhase.Quantile(p)
}

// ServiceRate returns the fraction of orders served.
func (m *Metrics) ServiceRate() float64 {
	if m.TotalOrders == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.TotalOrders)
}
