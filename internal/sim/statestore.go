package sim

import (
	"math"
	"sort"
	"sync"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// OrderState is an order's lifecycle phase as seen by a StateStore.
type OrderState string

// Order states. An order is pending from submission until the engine
// commits a terminal event for it.
const (
	OrderPending  OrderState = "pending"
	OrderAssigned OrderState = "assigned"
	OrderExpired  OrderState = "expired"
	// OrderCanceled marks a rider-initiated cancellation (patience
	// hazard or explicit DELETE); the string matches the serve layer's
	// OutcomeCanceledByRider so long-polls and reads agree.
	OrderCanceled OrderState = "canceled_by_rider"
)

// OrderView is the queryable per-order state a StateStore folds out of
// engine events — what GET /v1/orders/{id} serves.
type OrderView struct {
	ID       trace.OrderID `json:"id"`
	State    OrderState    `json:"state"`
	PostTime float64       `json:"post_time"`
	Deadline float64       `json:"deadline"`
	Pickup   geo.Point     `json:"pickup"`
	Dropoff  geo.Point     `json:"dropoff"`
	// Assigned-only fields.
	Driver     DriverID `json:"driver,omitempty"`
	AssignedAt float64  `json:"assigned_at,omitempty"`
	PickedAt   float64  `json:"picked_at,omitempty"`
	FreeAt     float64  `json:"free_at,omitempty"`
	PickupCost float64  `json:"pickup_cost,omitempty"`
	Revenue    float64  `json:"revenue,omitempty"`
	// ExpiredAt is the batch time the rider reneged (expired-only).
	ExpiredAt float64 `json:"expired_at,omitempty"`
	// CanceledAt is the batch time the rider canceled (canceled-only).
	CanceledAt float64 `json:"canceled_at,omitempty"`
	// Declines counts driver declines this order survived before its
	// terminal state.
	Declines int `json:"declines,omitempty"`
	// Shared marks an order served by a pooled insertion into an active
	// route plan; DetourSeconds is the rider's detour versus the direct
	// trip (planned at assignment, realized once dropped off). Both stay
	// zero without pooling.
	Shared        bool    `json:"shared,omitempty"`
	DetourSeconds float64 `json:"detour_seconds,omitempty"`
}

// DriverView is the queryable per-driver state: assignment counts and
// the driver's last known movement, folded from Assigned and
// Repositioned events.
type DriverView struct {
	ID          DriverID  `json:"id"`
	Served      int       `json:"served"`
	Declines    int       `json:"declines"`
	Repositions int       `json:"repositions"`
	Busy        bool      `json:"busy"` // heading to a pickup, trip, or cruise
	Pos         geo.Point `json:"pos"`  // last known (destination while busy)
	FreeAt      float64   `json:"free_at"`
	LastEventAt float64   `json:"last_event_at"`
	// Onboard and RemainingStops mirror a pooled driver's route plan:
	// riders currently in the car and stops still to serve. Both stay
	// zero without pooling.
	Onboard        int `json:"onboard"`
	RemainingStops int `json:"remaining_stops"`
}

// StoreStats snapshots the store's engine counters — what GET /v1/stats
// serves.
type StoreStats struct {
	// Clock and Batch track the latest batch boundary.
	Clock float64 `json:"clock"`
	Batch int     `json:"batch"`
	// Waiting and Available are the latest batch's queue depths.
	Waiting   int `json:"waiting"`
	Available int `json:"available"`
	// Terminal-outcome counters. Canceled counts rider-initiated
	// cancellations; Declined counts driver-declined assignments
	// (non-terminal — the order may still end assigned).
	Submitted    int `json:"submitted"`
	Assigned     int `json:"assigned"`
	Expired      int `json:"expired"`
	Canceled     int `json:"canceled"`
	Declined     int `json:"declined"`
	Repositioned int `json:"repositioned"`
	// Batch cycle wall-clock timings (milliseconds): the gap between
	// consecutive batch starts, i.e. dispatch work plus pacing sleep.
	// Avg and Max run over the whole session; the percentiles are
	// nearest-rank over the last 4,096 batches.
	AvgBatchGapMS float64 `json:"avg_batch_gap_ms"`
	MaxBatchGapMS float64 `json:"max_batch_gap_ms"`
	BatchGapP50MS float64 `json:"batch_gap_p50_ms"`
	BatchGapP95MS float64 `json:"batch_gap_p95_ms"`
	BatchGapP99MS float64 `json:"batch_gap_p99_ms"`
	// Revenue and PickupSeconds accumulate over assignments.
	Revenue       float64 `json:"revenue"`
	PickupSeconds float64 `json:"pickup_seconds"`
	// Pooled-trip counters: shared insertions committed, pickup and
	// dropoff stops completed, and the realized detour seconds of
	// completed shared trips. All stay zero without pooling.
	SharedAssigned int     `json:"shared_assigned"`
	PickedUp       int     `json:"picked_up"`
	DroppedOff     int     `json:"dropped_off"`
	DetourSeconds  float64 `json:"detour_seconds"`
}

// StateStore is an Observer that folds engine events into queryable
// per-order and per-driver views — the live state behind the HTTP
// gateway's read endpoints. Event callbacks run inline on the engine
// goroutine and only copy scalars under a short critical section;
// readers get snapshot copies and never see engine-owned pointers.
//
// Orders enter the store either through TrackSubmitted (the gateway
// registers each accepted submission so it is queryable while still
// pending) or lazily at their first terminal event; the two paths merge,
// so event/track ordering races are harmless.
type StateStore struct {
	mu      sync.RWMutex
	orders  map[trace.OrderID]*OrderView
	drivers map[DriverID]*DriverView
	stats   StoreStats

	// gapsMS rings the last gapWindow of the session's gapCount batch
	// gaps: uptime neither grows the store nor slows Stats.
	gapCount      int
	gapSumMS      float64
	gapsMS        [gapWindow]float64
	lastBatchWall time.Time

	// now supplies the wall clock for batch-gap timings. It defaults
	// to time.Now; SetClock injects a fake so store-view tests don't
	// depend on real time.
	now func() time.Time
}

// gapWindow is how many recent batch gaps the percentiles cover.
const gapWindow = 4096

// NewStateStore returns an empty store. fleet pre-populates that many
// driver views (ids 0..fleet-1) so GET /v1/drivers lists the whole
// fleet before any event mentions it; 0 learns drivers from events.
func NewStateStore(fleet int) *StateStore {
	s := &StateStore{
		orders:  make(map[trace.OrderID]*OrderView),
		drivers: make(map[DriverID]*DriverView),
		now:     time.Now, //mrvdlint:ignore wallclock injectable default; batch-gap timings measure real gateway pacing, not simulated time
	}
	for i := 0; i < fleet; i++ {
		s.drivers[DriverID(i)] = &DriverView{ID: DriverID(i)}
	}
	return s
}

// SetClock overrides the wall-clock source behind the batch-gap
// timings (AvgBatchGapMS and friends). Tests inject a deterministic
// clock; production code keeps the default. Call it before the engine
// starts delivering events.
func (s *StateStore) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// TrackSubmitted registers a submitted order so it is queryable while
// pending. It merges rather than overwrites: an order whose terminal
// event already arrived keeps its terminal state.
func (s *StateStore) TrackSubmitted(o trace.Order) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(o.ID)
	v.PostTime, v.Deadline = o.PostTime, o.Deadline
	v.Pickup, v.Dropoff = o.Pickup, o.Dropoff
	s.stats.Submitted++
}

// order returns the view for id, creating a pending one if needed.
// Callers hold s.mu.
func (s *StateStore) order(id trace.OrderID) *OrderView {
	v, ok := s.orders[id]
	if !ok {
		v = &OrderView{ID: id, State: OrderPending}
		s.orders[id] = v
	}
	return v
}

// driver returns the view for id, creating one if needed. Callers hold
// s.mu.
func (s *StateStore) driver(id DriverID) *DriverView {
	v, ok := s.drivers[id]
	if !ok {
		v = &DriverView{ID: id}
		s.drivers[id] = v
	}
	return v
}

// OnBatchStart implements Observer.
func (s *StateStore) OnBatchStart(e BatchStartEvent) {
	s.mu.Lock()
	now := s.now()
	defer s.mu.Unlock()
	s.stats.Clock = e.Now
	s.stats.Batch = e.Batch
	s.stats.Waiting = e.Waiting
	s.stats.Available = e.Available
	if !s.lastBatchWall.IsZero() {
		gap := now.Sub(s.lastBatchWall).Seconds() * 1000
		s.gapsMS[s.gapCount%gapWindow] = gap
		s.gapCount++
		s.gapSumMS += gap
		s.stats.AvgBatchGapMS = s.gapSumMS / float64(s.gapCount)
		if gap > s.stats.MaxBatchGapMS {
			s.stats.MaxBatchGapMS = gap
		}
	}
	s.lastBatchWall = now
	// Drivers whose trips completed are available again.
	//mrvdlint:ignore maporder disjoint per-driver flag clear; no cross-driver state, so visit order cannot matter
	for _, d := range s.drivers {
		if d.Busy && d.FreeAt <= e.Now {
			d.Busy = false
		}
	}
}

// OnAssigned implements Observer.
func (s *StateStore) OnAssigned(e AssignedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(e.Rider.Order.ID)
	if v.State == OrderPending { // events are authoritative; never downgrade
		v.State = OrderAssigned
		v.PostTime, v.Deadline = e.Rider.Order.PostTime, e.Rider.Order.Deadline
		v.Pickup, v.Dropoff = e.Rider.Order.Pickup, e.Rider.Order.Dropoff
		v.Driver = e.Driver
		v.AssignedAt = e.Now
		v.PickedAt = e.Rider.PickedAt
		v.FreeAt = e.FreeAt
		v.PickupCost = e.PickupCost
		v.Revenue = e.Revenue
		v.Shared = e.Shared
		v.DetourSeconds = e.DetourSeconds
		s.stats.Assigned++
		s.stats.Revenue += e.Revenue
		s.stats.PickupSeconds += e.PickupCost
		if e.Shared {
			s.stats.SharedAssigned++
		}
	}
	d := s.driver(e.Driver)
	d.Served++
	d.Busy = true
	d.Pos = e.Dest
	d.FreeAt = e.DriverFreeAt
	d.RemainingStops = e.Stops
	d.LastEventAt = e.Now
}

// OnExpired implements Observer.
func (s *StateStore) OnExpired(e ExpiredEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(e.Rider.Order.ID)
	if v.State == OrderPending {
		v.State = OrderExpired
		v.PostTime, v.Deadline = e.Rider.Order.PostTime, e.Rider.Order.Deadline
		v.Pickup, v.Dropoff = e.Rider.Order.Pickup, e.Rider.Order.Dropoff
		v.ExpiredAt = e.Now
		s.stats.Expired++
	}
}

// OnCanceled implements Observer.
func (s *StateStore) OnCanceled(e CanceledEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(e.Rider.Order.ID)
	switch v.State {
	case OrderPending:
		v.State = OrderCanceled
		v.PostTime, v.Deadline = e.Rider.Order.PostTime, e.Rider.Order.Deadline
		v.Pickup, v.Dropoff = e.Rider.Order.Pickup, e.Rider.Order.Dropoff
		v.CanceledAt = e.Now
		s.stats.Canceled++
	case OrderAssigned:
		// Pooling lets an assigned rider cancel off an active plan
		// before pickup; the assignment's accounting unwinds with it.
		v.State = OrderCanceled
		v.CanceledAt = e.Now
		s.stats.Canceled++
		s.stats.Assigned--
		s.stats.Revenue -= v.Revenue
		s.stats.PickupSeconds -= v.PickupCost
		if v.Shared {
			s.stats.SharedAssigned--
		}
		d := s.driver(v.Driver)
		d.Served--
		d.LastEventAt = e.Now
	}
}

// OnDeclined implements Observer.
func (s *StateStore) OnDeclined(e DeclinedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(e.Rider.Order.ID)
	v.Declines++
	d := s.driver(e.Driver)
	d.Declines++
	d.Busy = true
	// A pooled driver declining an insertion keeps executing its plan;
	// never pull its completion earlier than the plan's end.
	if e.RetryAt > d.FreeAt {
		d.FreeAt = e.RetryAt
	}
	d.LastEventAt = e.Now
	s.stats.Declined++
}

// OnRepositioned implements Observer.
func (s *StateStore) OnRepositioned(e RepositionedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.driver(e.Driver)
	d.Repositions++
	d.Busy = true
	d.Pos = e.To
	d.FreeAt = e.ArriveAt
	d.LastEventAt = e.Now
	s.stats.Repositioned++
}

// OnPickedUp implements Observer.
func (s *StateStore) OnPickedUp(e PickedUpEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.driver(e.Driver)
	d.Onboard = e.Onboard
	d.RemainingStops = e.Remaining
	d.LastEventAt = e.Now
	s.stats.PickedUp++
}

// OnDroppedOff implements Observer.
func (s *StateStore) OnDroppedOff(e DroppedOffEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(e.Order)
	if v.State == OrderAssigned {
		v.DetourSeconds = e.DetourSeconds
	}
	d := s.driver(e.Driver)
	d.Onboard = e.Onboard
	d.RemainingStops = e.Remaining
	d.LastEventAt = e.Now
	s.stats.DroppedOff++
	if e.Shared {
		s.stats.DetourSeconds += e.DetourSeconds
	}
}

// Order returns a snapshot of one order's view.
func (s *StateStore) Order(id trace.OrderID) (OrderView, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.orders[id]
	if !ok {
		return OrderView{}, false
	}
	return *v, true
}

// Orders returns snapshots of every known order, sorted by id.
func (s *StateStore) Orders() []OrderView {
	s.mu.RLock()
	out := make([]OrderView, 0, len(s.orders))
	for _, v := range s.orders {
		out = append(out, *v)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Drivers returns snapshots of every known driver, sorted by id.
func (s *StateStore) Drivers() []DriverView {
	s.mu.RLock()
	out := make([]DriverView, 0, len(s.drivers))
	for _, v := range s.drivers {
		out = append(out, *v)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns a snapshot of the engine counters, with nearest-rank
// batch-gap percentiles computed over the last gapWindow gaps.
func (s *StateStore) Stats() StoreStats {
	s.mu.RLock()
	st := s.stats
	gaps := append([]float64(nil), s.gapsMS[:min(s.gapCount, gapWindow)]...)
	s.mu.RUnlock()
	if len(gaps) > 0 {
		sort.Float64s(gaps)
		q := func(p float64) float64 {
			i := int(math.Ceil(p*float64(len(gaps)))) - 1
			if i < 0 {
				i = 0
			}
			return gaps[i]
		}
		st.BatchGapP50MS = q(0.50)
		st.BatchGapP95MS = q(0.95)
		st.BatchGapP99MS = q(0.99)
	}
	return st
}
