package sim

import (
	"errors"
	"sync"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/trace"
)

// OrderState is an order's lifecycle phase as booked by a StateStore;
// the strings are the HTTP API's order statuses.
type OrderState string

// Order states. An order is pending from registration until the engine
// commits a terminal event for it or the session ends.
const (
	OrderPending  OrderState = "pending"
	OrderAssigned OrderState = "assigned"
	OrderExpired  OrderState = "expired"
	// OrderCanceled marks a rider-initiated cancellation (patience
	// hazard or explicit DELETE).
	OrderCanceled OrderState = "canceled_by_rider"
	// OrderSessionEnded marks an order still pending when its session
	// ended (context cancellation, horizon, or drain).
	OrderSessionEnded OrderState = "canceled"
)

// Register error conditions.
var (
	// ErrSessionEnded: Close ran; the ledger books no further orders.
	ErrSessionEnded = errors.New("mrvd: serve session finished")
	// ErrInFlightLimit: the SetInFlightLimit bound is reached.
	ErrInFlightLimit = errors.New("mrvd: in-flight order limit reached")
)

// OrderView is one order's entry in a StateStore — what GET
// /v1/orders/{id} serves, and, once terminal, the outcome delivered to
// the order's submitter. Times are engine seconds.
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
// Repositioned events. Busy is set by the event that sends the driver
// off (an assignment, a decline's cooldown, a cruise) and clears at the
// first batch start at or after FreeAt.
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
	// consecutive batch starts, i.e. dispatch work plus pacing sleep,
	// plus the time a free-running session spent parked. All run over
	// the whole session: Avg and Max exactly, the percentiles
	// interpolated inside their obs.DefBuckets bucket (within a factor
	// of 2.5; a gap past 10 s counts as 10,000 ms). What the dispatch
	// work alone costs is mrvd_dispatch_phase_seconds.
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

// StateStore is a live session's order ledger and state views: it books
// every submitted order (Register), folds the session's engine events
// into per-order and per-driver views as an Observer, and hands each
// order's terminal view to its submitter — the live state behind the
// HTTP gateway. Event callbacks run inline on the engine goroutine and
// only copy scalars under a short critical section; readers get
// snapshot copies and never see engine-owned pointers.
//
// The critical section that turns an order terminal also resolves its
// waiter, so a submitter woken by an outcome reads that same outcome
// from Order, and an order is in exactly one state everywhere.
type StateStore struct {
	mu sync.RWMutex
	// orders holds the entries by id: the store issues ids
	// 0..len(orders)-1 in registration order. Look one up through order.
	orders []*orderEntry
	// drivers holds the views by id, nil where no event (or SeedFleet)
	// has named the driver yet. epoch is 1 + the batch starts seen so
	// far; an event sending a driver off stamps its sentIn with it.
	drivers []*driverEntry
	epoch   int
	stats   StoreStats

	// inFlight counts the pending orders against limit (0 = unbounded).
	inFlight int
	limit    int
	closed   bool
	// latency, when set, observes each order's wall-clock seconds from
	// Register to its terminal state.
	latency *obs.Histogram

	// gaps holds the session's batch gaps in seconds over
	// obs.DefBuckets: uptime neither grows the store nor slows Stats.
	gaps          obs.HistogramSnapshot
	lastBatchWall time.Time

	// now supplies the wall clock for batch-gap and order-latency
	// timings. It defaults to time.Now; SetClock injects a fake so
	// store tests don't depend on real time.
	now func() time.Time
}

// orderEntry is one booked order: its view plus, while pending, the
// waiter its terminal view is delivered to.
type orderEntry struct {
	OrderView
	done     chan OrderView
	accepted time.Time // wall time of Register; set only when latency is timed
}

// driverEntry is one driver's view plus sentIn, the store's epoch when
// an event last sent the driver off (0: none has). Drivers derives the
// view's Busy from both.
type driverEntry struct {
	DriverView
	sentIn int
}

// NewStateStore returns an empty store.
func NewStateStore() *StateStore {
	return &StateStore{
		epoch: 1,
		gaps:  obs.HistogramSnapshot{Bounds: obs.DefBuckets, Buckets: make([]int64, len(obs.DefBuckets)+1)},
		now:   time.Now, //mrvdlint:ignore wallclock injectable default; batch gaps and order latencies measure real gateway time, not simulated time
	}
}

// SetClock overrides the wall-clock source behind the batch-gap
// timings (AvgBatchGapMS and friends) and TimeOrders' latencies.
// Tests inject a deterministic clock; production code keeps the
// default. Call it before the engine starts delivering events.
func (s *StateStore) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SeedFleet creates the driver views 0..fleet-1 so Drivers lists the
// whole fleet before any event mentions it; drivers never seeded are
// learned from events.
func (s *StateStore) SeedFleet(fleet int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < fleet; i++ {
		s.driver(DriverID(i))
	}
}

// TimeOrders observes every order's wall-clock seconds from Register
// to its terminal state into h, on the store's clock.
func (s *StateStore) TimeOrders(h *obs.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = h
}

// SetInFlightLimit bounds how many registered orders may be pending at
// once; Register fails with ErrInFlightLimit beyond it. 0 (the
// default) is unbounded.
func (s *StateStore) SetInFlightLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
}

// Clock returns the engine time of the latest batch (0 before the
// first) — cheaper than Stats for callers that only stamp orders.
func (s *StateStore) Clock() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats.Clock
}

// InFlight reports how many registered orders are still pending.
func (s *StateStore) InFlight() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inFlight
}

// Register books one submitted order: it assigns the next id, submits
// the order to src (the session's source) and, if src accepts it,
// records the pending view together with the waiter that will receive
// the order's terminal view — a single-use channel, closed after the
// one send. The in-flight bound, the booking and the submission share
// one critical section, so the bound holds exactly under concurrent
// submitters, no event for the order can precede its entry, and an
// order src refuses leaves no trace.
func (s *StateStore) Register(o trace.Order, src *ChannelSource) (trace.OrderID, <-chan OrderView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, nil, ErrSessionEnded
	case s.limit > 0 && s.inFlight >= s.limit:
		return 0, nil, ErrInFlightLimit
	}
	o.ID = trace.OrderID(len(s.orders))
	if err := src.Submit(o); err != nil {
		return 0, nil, err
	}
	e := &orderEntry{
		OrderView: OrderView{
			ID: o.ID, State: OrderPending,
			PostTime: o.PostTime, Deadline: o.Deadline,
			Pickup: o.Pickup, Dropoff: o.Dropoff,
		},
		done: make(chan OrderView, 1),
	}
	if s.latency != nil {
		e.accepted = s.now()
	}
	s.orders = append(s.orders, e)
	s.inFlight++
	s.stats.Submitted++
	return o.ID, e.done, nil
}

// resolve delivers a pending entry's now-terminal view to its waiter.
// Callers hold s.mu and have just moved e out of OrderPending.
func (s *StateStore) resolve(e *orderEntry) {
	if s.latency != nil {
		s.latency.Observe(s.now().Sub(e.accepted).Seconds())
	}
	e.done <- e.OrderView // buffered: never blocks the engine goroutine
	close(e.done)
	e.done = nil
	s.inFlight--
}

// Close ends the session's books: every order still pending turns
// OrderSessionEnded and resolves its waiter, in id order, and Register
// fails from here on.
func (s *StateStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, e := range s.orders {
		if e.State == OrderPending {
			e.State = OrderSessionEnded
			s.resolve(e)
		}
	}
}

// order returns the entry booked under id, nil for an id the store
// never issued — ids arrive from outside over HTTP, negative ones too.
// Callers hold s.mu.
func (s *StateStore) order(id trace.OrderID) *orderEntry {
	if id < 0 || int(id) >= len(s.orders) {
		return nil
	}
	return s.orders[id]
}

// driver returns the view for id, creating one if needed. Callers hold
// s.mu.
func (s *StateStore) driver(id DriverID) *driverEntry {
	for int(id) >= len(s.drivers) {
		s.drivers = append(s.drivers, nil)
	}
	d := s.drivers[id]
	if d == nil {
		d = &driverEntry{DriverView: DriverView{ID: id}}
		s.drivers[id] = d
	}
	return d
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
	s.epoch++
	if !s.lastBatchWall.IsZero() {
		gap := now.Sub(s.lastBatchWall).Seconds()
		s.gaps.Observe(gap)
		s.stats.MaxBatchGapMS = max(s.stats.MaxBatchGapMS, gap*1000)
	}
	s.lastBatchWall = now
}

// OnAssigned implements Observer.
func (s *StateStore) OnAssigned(e AssignedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.order(e.Rider.Order.ID); v != nil && v.State == OrderPending {
		v.State = OrderAssigned
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
		s.resolve(v)
	}
	d := s.driver(e.Driver)
	d.Served++
	d.Pos = e.Dest
	d.FreeAt = e.DriverFreeAt
	d.sentIn = s.epoch
	d.RemainingStops = e.Stops
	d.LastEventAt = e.Now
}

// OnExpired implements Observer.
func (s *StateStore) OnExpired(e ExpiredEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.order(e.Rider.Order.ID); v != nil && v.State == OrderPending {
		v.State = OrderExpired
		v.ExpiredAt = e.Now
		s.stats.Expired++
		s.resolve(v)
	}
}

// OnCanceled implements Observer.
func (s *StateStore) OnCanceled(e CanceledEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.order(e.Rider.Order.ID)
	if v == nil {
		return
	}
	switch v.State {
	case OrderPending:
		v.State = OrderCanceled
		v.CanceledAt = e.Now
		s.stats.Canceled++
		s.resolve(v)
	case OrderAssigned:
		// Pooling lets an assigned rider cancel off an active plan
		// before pickup; the assignment's accounting unwinds with it
		// (the waiter already received the assignment).
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
	if v := s.order(e.Rider.Order.ID); v != nil {
		v.Declines++
	}
	d := s.driver(e.Driver)
	d.Declines++
	// A pooled driver declining an insertion keeps executing its plan;
	// never pull its completion earlier than the plan's end.
	if e.RetryAt > d.FreeAt {
		d.FreeAt = e.RetryAt
	}
	d.sentIn = s.epoch
	d.LastEventAt = e.Now
	s.stats.Declined++
}

// OnRepositioned implements Observer.
func (s *StateStore) OnRepositioned(e RepositionedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.driver(e.Driver)
	d.Repositions++
	d.Pos = e.To
	d.FreeAt = e.ArriveAt
	d.sentIn = s.epoch
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
	if v := s.order(e.Order); v != nil && v.State == OrderAssigned {
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
	e := s.order(id)
	if e == nil {
		return OrderView{}, false
	}
	return e.OrderView, true
}

// Orders returns snapshots of every booked order, in id order.
func (s *StateStore) Orders() []OrderView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]OrderView, 0, len(s.orders))
	for _, e := range s.orders {
		out = append(out, e.OrderView)
	}
	return out
}

// Drivers returns snapshots of every known driver, sorted by id, each
// busy as DriverView describes (the negated test never clears a NaN
// FreeAt).
func (s *StateStore) Drivers() []DriverView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DriverView, 0, len(s.drivers))
	for _, d := range s.drivers {
		if d != nil {
			v := d.DriverView
			v.Busy = d.sentIn == s.epoch || !(v.FreeAt <= s.stats.Clock)
			out = append(out, v)
		}
	}
	return out
}

// Stats returns a snapshot of the engine counters and the batch-gap
// timings.
func (s *StateStore) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	if s.gaps.Count > 0 {
		st.AvgBatchGapMS = 1000 * s.gaps.Mean()
		st.BatchGapP50MS = 1000 * s.gaps.Quantile(0.50)
		st.BatchGapP95MS = 1000 * s.gaps.Quantile(0.95)
		st.BatchGapP99MS = 1000 * s.gaps.Quantile(0.99)
	}
	return st
}
