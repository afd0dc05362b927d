package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

// Config parameterizes one simulation run.
type Config struct {
	// Grid partitions the city; nil defaults to the paper's 16x16 NYC grid.
	Grid *geo.Grid
	// Coster prices travel; nil defaults to roadnet.NewDefaultCoster().
	// Costers that implement roadnet.BatchCoster are priced one call per
	// batch — the batch's candidate pairs, through CostPairs when they
	// also implement roadnet.PairCoster; plain Costers are priced cell
	// by cell. See buildContext for the exact batched-versus-lazy rules.
	Coster roadnet.Coster
	// Delta is the batch interval in seconds (default 3, Table 2).
	Delta float64
	// TC is the scheduling window t_c in seconds (default 1200 = 20 min).
	TC float64
	// Horizon is the simulated span in seconds (default one day).
	Horizon float64
	// MaxCandidatesPerRider caps valid pairs per rider to the nearest
	// feasible drivers (default 12). It bounds batch cost at scale.
	MaxCandidatesPerRider int
	// CandidateCap, when positive, prices only the CandidateCap nearest
	// drivers per rider — a k-nearest pre-filter on the spatial index
	// applied before the deadline-feasibility check. The default 0
	// prices every driver within the rider's patience radius, which
	// keeps exact parity with per-pair costing; a cap bounds pricing
	// work per order for very large fleets at the cost of occasionally
	// missing a feasible far driver when nearer ones are
	// deadline-infeasible.
	CandidateCap int
	// RadiusSpeedMPS converts a rider's remaining patience into the
	// search radius for feasible drivers. It must upper-bound the real
	// travel speed or feasible pairs are missed (default 12).
	RadiusSpeedMPS float64
	// PredictRiders returns |^R_k| per region for [now, now+tc]; nil
	// predicts zeros everywhere.
	PredictRiders func(now, tc float64) []int
	// Shifts optionally bounds each driver's working period; when set it
	// must be parallel to the driver starts. Empty means every driver
	// works the whole horizon.
	Shifts []Shift
	// Repositioner optionally relocates long-idle drivers between
	// batches; nil disables repositioning (drivers wait where they
	// dropped off, the paper's base behaviour).
	Repositioner Repositioner
	// RepositionAfter is the idle time in seconds before a driver is
	// offered to the Repositioner (default 300 when one is set).
	RepositionAfter float64
	// Observer, when set, receives lifecycle events (batch boundaries,
	// assignments, reneges, repositions) as they happen.
	Observer Observer
	// StopWhenDrained ends the run before the horizon once the order
	// source is exhausted, no rider is waiting and no driver is busy —
	// the natural exit for live ChannelSource serving. The default keeps
	// the paper's fixed-horizon batch count.
	StopWhenDrained bool
	// Scenario gates the disruption layer: stochastic rider
	// cancellations, driver declines and travel-time noise. The zero
	// value disables all three and keeps the engine byte-identical to a
	// scenario-free run; see ScenarioConfig. Explicit cancels are
	// independent of the scenario: they flow in whenever the order
	// source implements CancelableSource.
	Scenario ScenarioConfig
	// Pooling enables multi-rider trips: a busy driver carries an
	// ordered route plan of pickup/dropoff stops, and new orders may be
	// inserted into active plans under the config's capacity and
	// per-rider detour bounds (see internal/pool). The zero value — or
	// any Capacity <= 1 — disables pooling and keeps the engine
	// byte-identical to a single-trip run: same Summary, same idle
	// ledger, same event stream.
	Pooling pool.Config
	// Obs wires the optional observability layer: a metrics registry
	// receiving phase timings and lifecycle counters, and/or a tracer
	// emitting one span per terminal order, both fed by the Observer
	// stream. The zero value disables both; enabled, only wall-clock
	// data outside Summary is touched, so determinism contracts hold.
	Obs ObsConfig
	// PaceFactor paces the batch loop against the wall clock: the
	// simulation advances at most PaceFactor simulated seconds per wall
	// second (1 = real time). This is what lets wall-clock producers
	// drive a live ChannelSource — without pacing the engine free-runs
	// thousands of times faster than real time while it has work, so
	// concurrently submitted orders would arrive with their deadlines
	// already in the engine's past. 0 (the default) free-runs.
	PaceFactor float64
}

// Repositioner proposes cruise targets for idle drivers. Returning
// ok=false leaves the driver in place. The driver travels to the target
// (unassignable while cruising) and its open idle-ledger entry keeps
// running — repositioning is not service. Like a Dispatcher, it must
// not retain ctx past the call (see Context).
type Repositioner interface {
	Target(ctx *Context, driver *Driver, region geo.RegionID) (geo.Point, bool)
}

// WithDefaults returns a copy of the config with every unset field
// replaced by its documented default — what New and NewWithSource apply
// at construction. Coordinators that run their own batch loop over the
// config's timing (internal/shard) resolve it once up front.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Grid == nil {
		c.Grid = geo.NewNYCGrid()
	}
	if c.Coster == nil {
		c.Coster = roadnet.NewDefaultCoster()
	}
	if c.Delta <= 0 {
		c.Delta = 3
	}
	if c.TC <= 0 {
		c.TC = 1200
	}
	if c.Horizon <= 0 {
		c.Horizon = 24 * 3600
	}
	if c.MaxCandidatesPerRider <= 0 {
		c.MaxCandidatesPerRider = 12
	}
	if c.RadiusSpeedMPS <= 0 {
		c.RadiusSpeedMPS = 12
	}
	return c
}

// IdleEstimating is an optional Dispatcher extension: dispatchers that
// maintain a queueing model report their per-region idle-time estimate,
// which the engine pairs with realized idle times in the ledger
// (Table 3's data). The engine asks before Assign, with the same ctx;
// it must not be retained past the call (see Context).
type IdleEstimating interface {
	EstimateIdle(ctx *Context, region geo.RegionID) float64
}

// completionHeap orders busy drivers by completion time.
type completionHeap []completion

type completion struct {
	freeAt float64
	driver DriverID
}

// push and pop are container/heap's Push and Pop on the concrete slice:
// the same sift, so completions with equal freeAt pop in the same order,
// without boxing each one into an interface value.
func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].freeAt < q[i].freeAt) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *completionHeap) pop() completion {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].freeAt < q[j1].freeAt {
			j = j2 // right child
		}
		if !(q[j].freeAt < q[i].freeAt) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Engine runs one simulation. Build with New (fixed trace) or
// NewWithSource (streaming orders); Run executes once.
type Engine struct {
	cfg     Config
	src     OrderSource
	srcDone bool
	// dense is cfg.Coster when it implements roadnet.BatchCoster — one
	// CostPairs call per batch (through densePairs when the coster has
	// only Costs), one Costs call per admission wave, two per pooling
	// search — and nil for plain Costers, priced lazily, cell by cell.
	dense   roadnet.PairCoster
	drivers []Driver

	idx     *geo.Index // available drivers
	busy    completionHeap
	waiting []*Rider
	riders  []*Rider
	// riderSlab is where admitOrders carves the next Riders from: one
	// allocation per riderSlabSize admissions instead of one per order.
	riderSlab []Rider

	// futureRejoin[k] holds sorted completion times of busy drivers whose
	// destination is region k; pruned as time advances.
	futureRejoin [][]float64

	// openIdle maps a rejoined driver to its pending ledger entry.
	openIdle map[DriverID]int
	// unestimated lists, in opening order, the ledger entries opened
	// since the last estimate sweep (plus any whose estimate came back
	// NaN) — what StepDispatch visits instead of every idle driver.
	unestimated []int

	// arena is the per-batch scratch buildContext and apply reuse.
	arena batchArena

	// scen is the disruption machinery, nil when Config.Scenario is
	// zero-valued — the scenario-free path pays no draws and no checks
	// beyond a nil test.
	scen *scenarioState
	// ps is the pooling machinery, nil unless Config.Pooling enables
	// multi-rider trips — the single-trip path pays nothing beyond a
	// nil test.
	ps *poolState
	// obs is the observability machinery, nil unless Config.Obs wires
	// a registry or tracer; its direct calls (wall-clock and search
	// tallies only) are no-ops on the nil receiver.
	obs *obsState
	// observer is the one stream every emit site fires: obs in front of
	// Config.Observer, either alone, or nil (no event is constructed).
	observer Observer
	// cancelSrc is the order source's cancellation feed when it has one
	// (ChannelSource, the shard runtime's feedSource); nil otherwise.
	cancelSrc CancelableSource
	// byID indexes admitted riders by order id for explicit-cancel
	// lookup; nil unless cancelSrc is set.
	byID map[trace.OrderID]*Rider
	// pendingCancels holds explicit cancel requests whose order the
	// engine has not admitted yet (still buffered in the source); they
	// are retried in FIFO order every batch.
	pendingCancels []trace.OrderID

	// shifts is parallel to drivers when configured.
	shifts []Shift

	metrics Metrics
	// sized records whether TotalOrders was fixed upfront by a
	// SizedSource or is counted per admission.
	sized bool
	ran   bool
}

// New builds a fresh engine over a fixed trace and initial driver
// positions — a convenience for NewWithSource with a SliceSource.
// Orders are copied, validated and sorted by post time.
func New(cfg Config, orders []trace.Order, driverStarts []geo.Point) *Engine {
	return NewWithSource(cfg, NewSliceSource(orders), driverStarts)
}

// NewWithSource builds a fresh engine that pulls orders from src each
// batch. Sources implementing SizedSource fix Metrics.TotalOrders to the
// full trace size upfront; otherwise TotalOrders counts admissions.
func NewWithSource(cfg Config, src OrderSource, driverStarts []geo.Point) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:          cfg,
		src:          src,
		idx:          geo.NewIndex(cfg.Grid),
		futureRejoin: make([][]float64, cfg.Grid.NumRegions()),
		openIdle:     make(map[DriverID]int),
		arena:        newBatchArena(cfg.Grid.NumRegions()),
	}
	if pc, ok := cfg.Coster.(roadnet.PairCoster); ok {
		e.dense = pc
	} else if bc, ok := cfg.Coster.(roadnet.BatchCoster); ok {
		e.dense = densePairs{bc}
	}
	if cfg.Scenario.Enabled() {
		e.scen = newScenarioState(cfg.Scenario)
	}
	if cfg.Pooling.Enabled() {
		e.ps = newPoolState(cfg.Pooling)
	}
	e.observer = cfg.Observer
	if cfg.Obs.Enabled() {
		e.obs = newObsState(cfg.Obs)
		e.observer = e.obs
		if cfg.Observer != nil {
			e.observer = Observers{e.obs, cfg.Observer}
		}
	}
	if cs, ok := src.(CancelableSource); ok {
		e.cancelSrc = cs
		e.byID = make(map[trace.OrderID]*Rider)
	}
	if len(cfg.Shifts) > 0 {
		if len(cfg.Shifts) != len(driverStarts) {
			panic(fmt.Sprintf("sim: %d shifts for %d drivers", len(cfg.Shifts), len(driverStarts)))
		}
		e.shifts = cfg.Shifts
	}
	e.drivers = make([]Driver, len(driverStarts))
	for i, p := range driverStarts {
		e.drivers[i] = Driver{ID: DriverID(i), State: Available, Pos: cfg.Grid.Bounds().Clamp(p), FreeAt: 0}
		if e.shifts != nil && e.shifts[i].JoinAt > 0 {
			e.drivers[i].State = Offline
			continue
		}
		e.idx.Insert(int32(i), p)
	}
	if sized, ok := src.(SizedSource); ok {
		e.metrics.TotalOrders = sized.TotalOrders()
		e.sized = true
	}
	return e
}

// Run executes the batch loop with the given dispatcher and returns the
// collected metrics. The context cancels the run between batches: a
// canceled or deadline-exceeded run returns the context's error (wrapped
// — test with errors.Is) and no metrics. An engine is single-use.
//
// Run is the session loop: Service.Run/Serve/Start, every core.Sweep
// cell and the CLIs run one engine through it. An unpaced run over a
// ParkableSource parks at the top of a batch when no rider waits, until
// the source holds an order, a cancel or its close (or ctx ends); the
// batch then runs at its own time, so the clock stands still while
// idle. Paced runs and other sources never park.
func (e *Engine) Run(ctx context.Context, d Dispatcher) (*Metrics, error) {
	if err := e.Begin(); err != nil {
		return nil, err
	}
	park, _ := e.src.(ParkableSource)
	if e.cfg.PaceFactor > 0 {
		park = nil // a paced session's clock is the wall clock
	}
	err := RunBatches(ctx, e.cfg, func(now float64) (bool, error) {
		if park != nil && len(e.waiting) == 0 {
			park.Park(ctx)
		}
		e.StepAdmit(now)
		if e.cfg.StopWhenDrained && e.Drained() {
			return true, nil
		}
		return false, e.StepDispatch(now, d)
	})
	if err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// RunBatches is the batch clock every run shares: for now = 0, Delta,
// 2*Delta, ... below Horizon it checks ctx, paces against the wall clock
// when PaceFactor is set, and calls step(now). It never yields or
// blocks itself: an idle free-running live session parks in step
// (Engine.Run) and a busy one yields in ChannelSource.Poll, so
// its clock advances only while it has work. step returns
// done=true to end the run before the horizon; its error, or the
// context's (wrapped — test with errors.Is), ends it immediately. cfg's
// timing must already be resolved (Config.WithDefaults): a zero Delta
// would never advance.
func RunBatches(ctx context.Context, cfg Config, step func(now float64) (done bool, err error)) error {
	wallStart := time.Now() //mrvdlint:ignore wallclock PaceFactor paces simulated time against the real wall clock by design
	for now := 0.0; now < cfg.Horizon; now += cfg.Delta {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: run stopped at t=%.0fs: %w", now, err)
		}
		if cfg.PaceFactor > 0 {
			target := wallStart.Add(time.Duration(now / cfg.PaceFactor * float64(time.Second)))
			if wait := time.Until(target); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return fmt.Errorf("sim: run stopped at t=%.0fs: %w", now, ctx.Err())
				case <-t.C:
				}
			}
		}
		if done, err := step(now); err != nil || done {
			return err
		}
	}
	return nil
}

// Begin arms the engine for stepping: it claims the single run and seeds
// the idle ledger with the starting fleet. Run calls it implicitly;
// lockstep coordinators call it once before the first StepAdmit.
func (e *Engine) Begin() error {
	if e.ran {
		return errors.New("sim: engine already ran; build a new one")
	}
	e.ran = true

	// The starting fleet's idle-before-first-rider (the paper's psi_0j)
	// is part of the ledger too.
	for i := range e.drivers {
		if e.drivers[i].State != Available {
			continue
		}
		e.openLedger(DriverID(i), 0)
	}
	return nil
}

// StepAdmit runs the pre-dispatch phase of the batch at time now: order
// admission from the source, trip completions, shift changes, rider
// cancellations (which fire OnCanceled) and rider reneging (which fires
// OnExpired). Cancellations are processed before reneges: a drawn
// cancellation time always precedes the deadline, so in model time the
// rider left first. It must be preceded by Begin and followed — on the
// same engine goroutine — by StepDispatch for the same now, unless the
// run is ending.
func (e *Engine) StepAdmit(now float64) {
	e.obs.start()
	e.admitOrders(now)
	e.rejoinDrivers(now)
	e.processShifts(now)
	e.processCancels(now)
	e.renegeExpired(now)
	e.obs.lap(phaseAdmit)
}

// StepDispatch runs the dispatch phase of the batch at time now: batch
// context construction, the OnBatchStart hook, idle-estimate capture,
// the dispatcher's assignment and its commitment, and repositioning.
func (e *Engine) StepDispatch(now float64, d Dispatcher) error {
	e.obs.start()
	bctx := e.buildContext(now)
	e.obs.lap(phaseBuild)
	if e.observer != nil {
		e.observer.OnBatchStart(BatchStartEvent{
			Now:       now,
			Batch:     e.metrics.Batches,
			Waiting:   len(bctx.Riders),
			Available: len(bctx.Drivers),
		})
	}
	// Capture idle estimates for the ledger entries opened since the
	// last sweep that are still open (a driver re-homed, retired or
	// sent cruising meanwhile left a censored entry nobody reads).
	pending := e.unestimated
	e.unestimated = e.unestimated[:0]
	if estimator, ok := d.(IdleEstimating); ok {
		for _, rec := range pending {
			if !e.ledgerOpen(rec) {
				continue
			}
			r := &e.metrics.IdleRecords[rec]
			r.Estimate = estimator.EstimateIdle(bctx, r.Region)
			if math.IsNaN(r.Estimate) {
				e.unestimated = append(e.unestimated, rec) // retried next batch
			}
		}
	}

	start := time.Now() //mrvdlint:ignore wallclock Metrics.BatchSeconds is the dispatcher's real critical-path wall time by design
	assignments := d.Assign(bctx)
	dispatchSeconds := time.Since(start).Seconds() //mrvdlint:ignore wallclock Metrics.BatchSeconds is the dispatcher's real critical-path wall time by design
	e.metrics.BatchSeconds = append(e.metrics.BatchSeconds, dispatchSeconds)
	e.metrics.Batches++
	e.obs.observe(phaseDispatch, dispatchSeconds)

	if err := e.apply(now, bctx, assignments); err != nil {
		return err
	}
	e.reposition(now, bctx)
	e.obs.lap(phaseApply)
	return nil
}

// Drained reports whether the run has nothing left to do: the source is
// exhausted, no rider waits and no driver is busy. It is meaningful
// after a StepAdmit.
func (e *Engine) Drained() bool {
	return e.srcDone && len(e.waiting) == 0 && len(e.busy) == 0
}

// Finish censors ledger entries that never closed and returns the
// collected metrics. The engine must not be stepped afterwards.
func (e *Engine) Finish() *Metrics {
	e.closeLedger()
	return &e.metrics
}

// Counts reports the current waiting-rider and available-driver counts —
// what the next batch's BatchStartEvent would carry. Lockstep
// coordinators read it between steps to synthesize one city-wide batch
// event across shards.
func (e *Engine) Counts() (waiting, available int) {
	return len(e.waiting), e.idx.Len()
}

// Tally reports the lifecycle counters so far, as a Metrics value that
// carries nothing else — what a lockstep coordinator copies into its
// per-shard stats.
func (e *Engine) Tally() Metrics {
	m := &e.metrics
	return Metrics{
		Served: m.Served, Reneged: m.Reneged, Canceled: m.Canceled, Declines: m.Declines,
		SharedServed: m.SharedServed, PickedUp: m.PickedUp, DroppedOff: m.DroppedOff,
	}
}

// EachJoined visits, in ascending id order, every driver that became
// available since the last StepDispatch — the starting fleet, trip,
// cruise and cooldown completions, shift joins, AddDriver hand-offs —
// with the region it stands in. An available driver never moves, so
// these are the only drivers whose region differs from the one they
// were last seen in: what a sharded runtime's fleet re-homing checks
// between the admit and dispatch steps. Every path that makes a driver
// available opens an idle-ledger entry, so the list is the ledger's
// unestimated one (which may also carry a few long-idle drivers whose
// estimate is being retried). It must not be called concurrently with
// stepping.
func (e *Engine) EachJoined(f func(id DriverID, region geo.RegionID)) {
	// The sorted visit list borrows driverRow, which every buildContext
	// rebuilds and nothing reads in between: the one list as long as the
	// fleet (the starting fleet, all joining at Begin) costs no
	// allocation the first batch would not have made.
	a := &e.arena
	joined := slices.Grow(a.driverRow[:0], len(e.unestimated))
	for _, rec := range e.unestimated {
		if e.ledgerOpen(rec) {
			joined = append(joined, int32(e.metrics.IdleRecords[rec].Driver))
		}
	}
	a.driverRow = joined
	slices.Sort(joined)
	regions := e.idx.Regions()
	for _, id := range joined {
		f(DriverID(id), regions[id])
	}
}

// RemoveDriver withdraws an available driver from this engine — the
// donor half of cross-engine fleet re-homing. The driver's slot stays
// allocated but permanently inert (Departed), its open idle-ledger
// entry is censored like a shift departure, and its position, idle
// anchor and shift are returned so the receiving engine can re-create
// it faithfully. Only available drivers can be withdrawn.
func (e *Engine) RemoveDriver(id DriverID) (pos geo.Point, freeAt float64, shift Shift, ok bool) {
	if int(id) >= len(e.drivers) || e.drivers[id].State != Available {
		return geo.Point{}, 0, Shift{}, false
	}
	d := &e.drivers[id]
	pos, freeAt = d.Pos, d.FreeAt
	if e.shifts != nil {
		shift = e.shifts[id]
	}
	d.State = Departed
	e.idx.Remove(int32(id))
	delete(e.openIdle, id) // censored idle entry, like a shift leave
	return pos, freeAt, shift, true
}

// AddDriver admits a driver handed off by another engine: it joins
// available at p with its idle anchor (freeAt, the time it last became
// available) preserved, opening a fresh idle-ledger entry, and keeps
// its shift bounds. The new local id is returned; the caller maintains
// any mapping to a global fleet numbering.
func (e *Engine) AddDriver(p geo.Point, freeAt float64, shift Shift) DriverID {
	id := DriverID(len(e.drivers))
	p = e.cfg.Grid.Bounds().Clamp(p)
	e.drivers = append(e.drivers, Driver{ID: id, State: Available, Pos: p, FreeAt: freeAt})
	if e.shifts == nil && shift != (Shift{}) {
		e.shifts = make([]Shift, len(e.drivers)-1)
	}
	if e.shifts != nil {
		e.shifts = append(e.shifts, shift)
	}
	e.idx.Insert(int32(id), p)
	e.openLedger(id, freeAt)
	return id
}

// riderSlabSize is how many Riders one admission allocation holds.
const riderSlabSize = 256

// admitOrders pulls newly posted orders from the source into the waiting
// set. Orders from non-validating custom sources are checked here: a
// structurally broken order is a programming error and panics, matching
// New's construction-time check.
//
// Trip costs (pickup→dropoff) for the whole admission wave are priced
// through one BatchCoster.Costs call when the coster batches natively —
// the same batched-versus-lazy policy buildContext applies to pickup
// costs. A graph coster then runs one truncated Dijkstra per unique
// pickup instead of a full tree per order, with values bitwise-identical
// to per-pair Cost queries (the BatchCoster contract). The call is the
// dense one, not CostPairs over the diagonal: bench/'s traced coster
// times the wave through Costs and is frozen (ROADMAP ruler note (h)).
func (e *Engine) admitOrders(now float64) {
	ready, done := e.src.Poll(now)
	e.srcDone = done
	if len(ready) == 0 {
		return
	}
	for _, o := range ready {
		if err := o.Valid(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
	}
	var trips []float64
	if e.dense != nil {
		// Only the matrix diagonal is read, so the wave is chunked:
		// Costs is dense, and one call over a huge backlog wave (a
		// replay's first batch can admit the whole queue) would build
		// an n×n slab to read n cells. Within a chunk the graph coster
		// still dedups sources and truncates each expansion at the
		// chunk's dropoffs; across chunks its tree cache carries the
		// reuse.
		const chunk = 256
		a := &e.arena
		a.trips = slices.Grow(a.trips[:0], len(ready))[:len(ready)]
		trips = a.trips
		for lo := 0; lo < len(ready); lo += chunk {
			hi := min(lo+chunk, len(ready))
			a.pickups, a.dropoffs = a.pickups[:0], a.dropoffs[:0]
			for _, o := range ready[lo:hi] {
				a.pickups = append(a.pickups, o.Pickup)
				a.dropoffs = append(a.dropoffs, o.Dropoff)
			}
			matrix := e.dense.Costs(a.pickups, a.dropoffs)
			for i := range matrix {
				trips[lo+i] = matrix[i][i]
			}
		}
	}
	for i, o := range ready {
		trip := 0.0
		if trips != nil {
			trip = trips[i]
		} else {
			trip = e.cfg.Coster.Cost(o.Pickup, o.Dropoff)
		}
		if len(e.riderSlab) == 0 {
			e.riderSlab = make([]Rider, riderSlabSize)
		}
		r := &e.riderSlab[0]
		e.riderSlab = e.riderSlab[1:]
		*r = Rider{
			Order:        o,
			Status:       WaitingStatus,
			TripCost:     trip,
			PickupRegion: e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(o.Pickup)),
			DestRegion:   e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(o.Dropoff)),
		}
		if e.scen != nil && e.scen.cancel != nil {
			if at, ok := e.scen.cancel.CancelTime(e.scen.rng.Float64(), o.PostTime, o.Deadline); ok {
				r.CancelAt = at
			}
		}
		e.riders = append(e.riders, r)
		e.waiting = append(e.waiting, r)
		if e.byID != nil {
			e.byID[o.ID] = r
		}
		e.obs.admit(o, now)
		if !e.sized {
			e.metrics.TotalOrders++
		}
	}
}

// processCancels applies rider-initiated cancellations at time now:
// explicit requests from the source's cancellation feed first (in
// request order), then the scenario's stochastic abandonments (in
// waiting order). Canceled riders leave the waiting set in one
// compaction pass. Explicit cancels for orders the engine has not
// admitted yet are retried each batch until the order arrives; cancels
// for already-terminal orders are dropped.
func (e *Engine) processCancels(now float64) {
	canceled := false
	if e.cancelSrc != nil {
		ids := e.cancelSrc.PollCancels()
		if len(e.pendingCancels) > 0 {
			ids = append(e.pendingCancels, ids...)
			e.pendingCancels = nil
		}
		for _, id := range ids {
			r, ok := e.byID[id]
			if !ok {
				// Not admitted yet: the order is still buffered in the
				// source, so retry once it lands — unless the source is
				// done, in which case the id can never arrive (a caller
				// typo) and the request is dropped instead of being
				// retried every batch forever.
				if !e.srcDone {
					e.pendingCancels = append(e.pendingCancels, id)
				}
				continue
			}
			if r.Status != WaitingStatus {
				// Already assigned, expired or canceled — except that in
				// pooling mode an assigned rider may still cancel off an
				// active plan, as long as they are not yet onboard.
				if e.ps != nil && r.Status == AssignedStatus {
					e.cancelPooled(now, r)
				}
				continue
			}
			e.cancelRider(now, r, true)
			canceled = true
		}
	}
	if e.scen != nil && e.scen.cancel != nil {
		for _, r := range e.waiting {
			if r.Status == WaitingStatus && r.CancelAt > 0 && r.CancelAt <= now {
				e.cancelRider(now, r, false)
				canceled = true
			}
		}
	}
	if canceled {
		e.compactWaiting()
	}
}

// compactWaiting removes every no-longer-waiting rider from the waiting
// set in one stable pass, preserving admission order.
func (e *Engine) compactWaiting() {
	kept := e.waiting[:0]
	for _, r := range e.waiting {
		if r.Status == WaitingStatus {
			kept = append(kept, r)
		}
	}
	e.waiting = kept
}

// cancelRider commits one rider-initiated cancellation; for a rider
// still waiting, the caller compacts the waiting set.
func (e *Engine) cancelRider(now float64, r *Rider, explicit bool) {
	r.Status = CanceledStatus
	e.metrics.Canceled++
	if e.observer != nil {
		e.observer.OnCanceled(CanceledEvent{Now: now, Rider: r, Explicit: explicit})
	}
}

// rejoinDrivers makes busy drivers whose trips completed available,
// opening their idle-ledger entries. In pooling mode a busy driver's
// heap entry is its plan's front-stop arrival, so completions advance
// the plan stop by stop instead of freeing the driver in one jump.
func (e *Engine) rejoinDrivers(now float64) {
	for len(e.busy) > 0 && e.busy[0].freeAt <= now {
		c := e.busy.pop()
		if e.ps != nil {
			if p, ok := e.ps.plans[c.driver]; ok {
				e.advancePlan(now, c.driver, p)
				continue
			}
		}
		e.rejoin(c.driver, c.freeAt)
	}
}

// rejoin returns a driver whose work completed at freeAt to the
// available pool and opens its idle-ledger entry — unless its shift
// ended meanwhile, in which case it goes offline instead.
func (e *Engine) rejoin(id DriverID, freeAt float64) {
	drv := &e.drivers[id]
	if e.shifts != nil {
		if la := e.shifts[id].LeaveAt; la > 0 && freeAt >= la {
			drv.State = Offline
			return
		}
	}
	drv.State = Available
	e.idx.Insert(int32(id), drv.Pos)
	e.openLedger(id, freeAt)
}

// openLedger starts an idle-ledger entry for an available, indexed
// driver that (re)joined the pool at time at.
func (e *Engine) openLedger(id DriverID, at float64) {
	region, _ := e.idx.RegionOf(int32(id))
	e.metrics.IdleRecords = append(e.metrics.IdleRecords, IdleRecord{
		Driver:   id,
		Region:   region,
		RejoinAt: at,
		Estimate: math.NaN(),
		Realized: math.NaN(),
	})
	e.openIdle[id] = len(e.metrics.IdleRecords) - 1
	e.unestimated = append(e.unestimated, len(e.metrics.IdleRecords)-1)
}

// ledgerOpen reports whether idle-ledger entry rec is still its
// driver's running one: not closed by an assignment, nor censored by a
// cruise, a decline, a shift end or a re-homing.
func (e *Engine) ledgerOpen(rec int) bool {
	open, ok := e.openIdle[e.metrics.IdleRecords[rec].Driver]
	return ok && open == rec
}

// renegeExpired drops waiting riders whose deadline has passed: no
// assignment made at or after now can reach them in time.
func (e *Engine) renegeExpired(now float64) {
	kept := e.waiting[:0]
	for _, r := range e.waiting {
		if r.Order.Deadline < now {
			r.Status = RenegedStatus
			e.metrics.Reneged++
			if e.observer != nil {
				e.observer.OnExpired(ExpiredEvent{Now: now, Rider: r})
			}
			continue
		}
		kept = append(kept, r)
	}
	e.waiting = kept
}

// buildContext snapshots the batch state, prices the batch's candidate
// driver-to-pickup pairs in one PairCoster call, and precomputes valid
// pairs as matrix lookups. Every slice is the arena's; the header
// (Context plus CostMatrix, one object) must stay fresh — dispatchers
// key per-batch caches on the *Context they were handed.
func (e *Engine) buildContext(now float64) *Context {
	grid := e.cfg.Grid
	a := &e.arena
	frame := &struct {
		ctx   Context
		costs CostMatrix
	}{}
	clear(a.waitingPerRegion)
	e.countFutureRejoins(now, a.predictedDrivers)
	predictedRiders := a.noRiders
	if e.cfg.PredictRiders != nil {
		predictedRiders = e.cfg.PredictRiders(now, e.cfg.TC)
	}

	// Available drivers, in id order for determinism. The index holds
	// exactly the available fleet, so its id-to-region array and bucket
	// sizes are the table: no Driver is loaded to learn it is busy. The
	// table is rebuilt only when the index's membership or regions
	// changed (Index.Gen) or the fleet grew (which may also have moved
	// e.drivers, whose elements the table points at); positions are
	// read through those pointers, so a move within a region is seen
	// without one.
	if gen := e.idx.Gen(); gen != a.tableGen || len(e.drivers) != a.tableFleet {
		a.tableGen, a.tableFleet = gen, len(e.drivers)
		a.driverSlot = slices.Grow(a.driverSlot[:0], len(e.drivers))[:len(e.drivers)]
		a.drivers, a.driverRegion = a.drivers[:0], a.driverRegion[:0]
		for id, region := range e.idx.Regions() {
			if region >= 0 {
				a.driverSlot[id] = int32(len(a.drivers))
				a.drivers = append(a.drivers, &e.drivers[id])
				a.driverRegion = append(a.driverRegion, region)
			}
		}
		for k := range a.availablePerRegion {
			a.availablePerRegion[k] = len(e.idx.InRegion(geo.RegionID(k)))
		}
	}

	// Waiting riders and their candidate drivers. Candidates come from
	// the spatial index — every available driver within the radius the
	// rider's remaining patience allows, optionally pre-filtered to the
	// CandidateCap nearest — and are priced below in one many-to-many
	// batch instead of per-pair Coster calls. Lazy pricing reads each
	// rider's candidates nearest-first only until its pairs are found,
	// so they are gathered unsorted; a batch coster prices them all, in
	// Within's order (which GraphCoster's tree cache sees as its source
	// order).
	a.riders, a.riderRegion = a.riders[:0], a.riderRegion[:0]
	a.cand, a.candEnd, a.targets = a.cand[:0], a.candEnd[:0], a.targets[:0]
	for _, r := range e.waiting {
		a.riders = append(a.riders, r)
		a.riderRegion = append(a.riderRegion, r.PickupRegion)
		a.waitingPerRegion[r.PickupRegion]++

		slack := r.Order.Deadline - now
		radius := slack * e.cfg.RadiusSpeedMPS
		switch {
		case e.cfg.CandidateCap > 0:
			a.cand = e.idx.AppendNearest(a.cand, r.Order.Pickup, e.cfg.CandidateCap, radius)
		case e.dense != nil:
			a.cand = e.idx.AppendWithin(a.cand, r.Order.Pickup, radius)
		default:
			a.cand = e.idx.AppendInRadius(a.cand, r.Order.Pickup, radius)
		}
		a.candEnd = append(a.candEnd, len(a.cand))
		a.targets = append(a.targets, r.Order.Pickup)
	}

	// The batch's unique candidate drivers, in first-appearance order,
	// form the cost matrix's source rows.
	a.driverRow = slices.Grow(a.driverRow[:0], len(a.drivers))[:len(a.drivers)]
	for i := range a.driverRow {
		a.driverRow[i] = -1
	}
	a.sources = a.sources[:0]
	for _, nb := range a.cand {
		if slot := a.driverSlot[nb.ID]; a.driverRow[slot] == -1 {
			a.driverRow[slot] = int32(len(a.sources))
			a.sources = append(a.sources, a.drivers[slot].Pos)
		}
	}

	// Price the matrix: sparse rows, NaN where nobody priced (CostMatrix
	// reports such a cell as uncovered), carved from the arena's slab
	// on first touch. Batched mode (see Engine.dense) issues the one
	// call per batch the API documents, over every rider's candidates
	// — what lets a graph coster run one Dijkstra per unique source,
	// truncated at that driver's own farthest candidate rider, or a
	// remote coster batch its round-trips. Lazy mode (plain Costers —
	// closed forms, nothing to amortize) prices in the pair loop below
	// exactly the cells it reads. Either way the priced values are
	// bitwise-identical to per-pair Coster queries.
	a.rows = slices.Grow(a.rows[:0], len(a.sources))[:len(a.sources)]
	clear(a.rows)
	a.slab = a.slab[:0]
	costs := a.rows
	if e.dense != nil {
		a.pairSrc, a.pairTgt = a.pairSrc[:0], a.pairTgt[:0]
		lo := 0
		for wi, end := range a.candEnd {
			for _, nb := range a.cand[lo:end] {
				a.pairSrc = append(a.pairSrc, a.driverRow[a.driverSlot[nb.ID]])
				a.pairTgt = append(a.pairTgt, int32(wi))
			}
			lo = end
		}
		a.pairCost = slices.Grow(a.pairCost[:0], len(a.pairSrc))[:len(a.pairSrc)]
		e.dense.CostPairs(a.sources, a.targets, a.pairSrc, a.pairTgt, a.pairCost)
		for k, row := range a.pairSrc {
			if costs[row] == nil {
				costs[row] = a.costRow(len(a.targets))
			}
			costs[row][a.pairTgt[k]] = a.pairCost[k]
		}
	}
	frame.costs = CostMatrix{rows: costs, driverRow: a.driverRow}

	// Valid pairs (Definition 3) become matrix lookups: candidates are
	// taken nearest-first and kept while the driver can reach the
	// pickup before the deadline, up to MaxCandidatesPerRider feasible
	// pairs per rider. Lazily priced cells preserve the per-pair path's
	// work profile — pricing stops with the cap, not at the radius. The
	// heap yields Within's order whether or not the candidates arrived
	// sorted, and leaves a.cand permuted.
	a.pairs = a.pairs[:0]
	lo := 0
	for wi, r := range e.waiting {
		found := 0
		near := geo.NearestFirst(a.cand[lo:a.candEnd[wi]])
		near.Init()
		for found < e.cfg.MaxCandidatesPerRider && len(near) > 0 {
			nb := near.Pop()
			slot := a.driverSlot[nb.ID]
			row := costs[a.driverRow[slot]]
			if row == nil {
				row = a.costRow(len(a.targets))
				costs[a.driverRow[slot]] = row
			}
			pc := row[wi]
			if math.IsNaN(pc) {
				pc = e.cfg.Coster.Cost(e.drivers[nb.ID].Pos, a.targets[wi])
				row[wi] = pc
			}
			if now+pc > r.Order.Deadline {
				continue
			}
			a.pairs = append(a.pairs, Pair{
				R:          int32(wi),
				D:          slot,
				PickupCost: pc,
				TripCost:   r.TripCost,
				DestRegion: r.DestRegion,
			})
			found++
		}
		lo = a.candEnd[wi]
	}
	// Pairs are naturally grouped by rider; sort each rider's group by
	// pickup cost (Within already yields distance order, but the coster
	// may disagree with straight-line distance).
	slices.SortStableFunc(a.pairs, func(x, y Pair) int {
		if x.R != y.R {
			return cmp.Compare(x.R, y.R)
		}
		return cmp.Compare(x.PickupCost, y.PickupCost)
	})
	frame.ctx = Context{
		Now:                now,
		TC:                 e.cfg.TC,
		Grid:               grid,
		Coster:             e.cfg.Coster,
		PickupCosts:        &frame.costs,
		Riders:             a.riders,
		Drivers:            a.drivers,
		Pairs:              a.pairs,
		WaitingPerRegion:   a.waitingPerRegion,
		AvailablePerRegion: a.availablePerRegion,
		PredictedRiders:    predictedRiders,
		PredictedDrivers:   a.predictedDrivers,
		RiderRegion:        a.riderRegion,
		DriverRegion:       a.driverRegion,
	}
	if e.ps != nil {
		e.buildPoolOptions(now, &frame.ctx)
	}
	return &frame.ctx
}

// countFutureRejoins writes into out, per region, how many busy drivers
// will complete there within [now, now+tc), pruning completions already
// in the past. Most regions' lists are empty or wholly inside the
// window, which needs no search.
func (e *Engine) countFutureRejoins(now float64, out []int) {
	until := now + e.cfg.TC
	for k, times := range e.futureRejoin {
		n := len(times)
		if n == 0 || times[0] >= now && times[n-1] < until {
			out[k] = n
			continue
		}
		if i := sort.SearchFloat64s(times, now); i > 0 {
			times = times[i:]
			e.futureRejoin[k] = times
		}
		out[k] = sort.SearchFloat64s(times, until)
	}
}

// apply validates and commits a batch's assignments.
func (e *Engine) apply(now float64, ctx *Context, assignments []Assignment) error {
	ar := &e.arena
	ar.stamp++
	ar.usedR = slices.Grow(ar.usedR[:0], len(ctx.Riders))[:len(ctx.Riders)]
	ar.usedD = slices.Grow(ar.usedD[:0], len(ctx.Drivers))[:len(ctx.Drivers)]
	var usedPool map[DriverID]bool
	changed := false
	for _, a := range assignments {
		if a.Pool {
			if usedPool == nil {
				usedPool = make(map[DriverID]bool)
			}
			didChange, err := e.applyPooled(now, ctx, a, usedPool)
			if err != nil {
				return err
			}
			changed = changed || didChange
			continue
		}
		if a.R < 0 || int(a.R) >= len(ctx.Riders) || a.D < 0 || int(a.D) >= len(ctx.Drivers) {
			return fmt.Errorf("sim: assignment (%d,%d) out of range", a.R, a.D)
		}
		if ar.usedR[a.R] == ar.stamp {
			return fmt.Errorf("sim: rider %d assigned twice", a.R)
		}
		if ar.usedD[a.D] == ar.stamp {
			return fmt.Errorf("sim: driver %d assigned twice", a.D)
		}
		ar.usedR[a.R] = ar.stamp
		ar.usedD[a.D] = ar.stamp

		rider := ctx.Riders[a.R]
		drv := ctx.Drivers[a.D]
		if rider.Status != WaitingStatus {
			return fmt.Errorf("sim: rider %d not waiting", rider.Order.ID)
		}
		if drv.State != Available {
			return fmt.Errorf("sim: driver %d not available", drv.ID)
		}

		pickupCost := 0.0
		if !a.IgnorePickup {
			// The batch matrix already priced every candidate pair; only
			// assignments outside it (custom dispatchers straying from
			// ctx.Pairs) fall back to a fresh Coster query.
			pickupCost = ctx.PickupCost(a.D, a.R)
			if now+pickupCost > rider.Order.Deadline {
				return fmt.Errorf("sim: driver %d cannot reach rider %d before deadline (%.1f > %.1f)",
					drv.ID, rider.Order.ID, now+pickupCost, rider.Order.Deadline)
			}
		}
		trip := rider.TripCost

		// Driver decline: the scenario may reject the commitment. The
		// rider stays waiting with its deadline unchanged (re-dispatched
		// next batch); the driver cools down unassignable.
		if e.scen != nil && e.scen.declines() {
			e.declineAssignment(now, rider, drv.ID)
			continue
		}

		// Travel noise: dispatch planned on the estimates above; the
		// committed trip realizes perturbed durations, and the
		// estimate-vs-realized gap goes to the error ledger.
		realPickup, realTrip := pickupCost, trip
		if e.scen != nil && e.scen.cfg.TravelNoise > 0 {
			if !a.IgnorePickup {
				realPickup = e.scen.perturb(pickupCost)
			}
			realTrip = e.scen.perturb(trip)
			e.metrics.TravelRecords = append(e.metrics.TravelRecords, TravelRecord{
				Order:          rider.Order.ID,
				Driver:         drv.ID,
				At:             now,
				PickupEstimate: pickupCost,
				PickupRealized: realPickup,
				TripEstimate:   trip,
				TripRealized:   realTrip,
			})
		}

		// Close the driver's idle ledger entry.
		if rec, ok := e.openIdle[drv.ID]; ok {
			e.metrics.IdleRecords[rec].Realized = now - e.drivers[drv.ID].FreeAt
			delete(e.openIdle, drv.ID)
		}

		// Commit.
		rider.Status = AssignedStatus
		rider.Driver = drv.ID
		rider.PickedAt = now + realPickup
		freeAt := now + realPickup + realTrip
		d := &e.drivers[drv.ID]
		d.State = Busy
		d.Pos = rider.Order.Dropoff
		d.FreeAt = freeAt
		d.Served++
		e.idx.Remove(int32(drv.ID))
		stops := 0
		if e.ps != nil {
			// Pooling: the trip becomes a two-stop route plan, and the
			// completion heap tracks its front stop (the pickup) instead
			// of the whole-trip completion.
			e.startPlan(rider, drv.ID, now+realPickup, freeAt, realTrip, realPickup)
			stops = 2
		} else {
			e.busy.push(completion{freeAt: freeAt, driver: drv.ID})
		}

		e.insertFutureRejoin(rider.DestRegion, freeAt)

		e.metrics.Revenue += realTrip
		e.metrics.PickupSeconds += realPickup
		e.metrics.Served++
		changed = true

		if e.observer != nil {
			e.observer.OnAssigned(AssignedEvent{
				Now:          now,
				Rider:        rider,
				Driver:       drv.ID,
				PickupCost:   realPickup,
				Revenue:      realTrip,
				FreeAt:       freeAt,
				Stops:        stops,
				Dest:         rider.Order.Dropoff,
				DriverFreeAt: freeAt,
			})
		}
	}
	// One mark-and-compact pass removes every assigned rider from the
	// waiting set: the loop above marked them AssignedStatus, so a
	// single stable sweep replaces the per-assignment O(n) deletion
	// that made large-backlog batches quadratic.
	if changed {
		e.compactWaiting()
	}
	return nil
}

// declineAssignment commits one driver decline: the rider keeps
// waiting, the driver goes on cooldown — busy in place, rejoining
// through the normal completion path (which opens a fresh idle-ledger
// entry). The driver's running idle entry is censored like a
// reposition cruise: cooldown is not service and not idle-for-ledger
// time.
func (e *Engine) declineAssignment(now float64, rider *Rider, id DriverID) {
	d := &e.drivers[id]
	delete(e.openIdle, id)
	retryAt := now + e.scen.cooldown()
	d.State = Busy
	d.FreeAt = retryAt
	e.idx.Remove(int32(id))
	e.busy.push(completion{freeAt: retryAt, driver: id})
	e.insertFutureRejoin(e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(d.Pos)), retryAt)
	e.metrics.Declines++
	if e.observer != nil {
		e.observer.OnDeclined(DeclinedEvent{Now: now, Rider: rider, Driver: id, RetryAt: retryAt})
	}
}

func (e *Engine) insertFutureRejoin(region geo.RegionID, at float64) {
	times := e.futureRejoin[region]
	i := sort.SearchFloat64s(times, at)
	times = append(times, 0)
	copy(times[i+1:], times[i:])
	times[i] = at
	e.futureRejoin[region] = times
}

// removeFutureRejoin drops one scheduled completion — used when pooling
// moves a driver's plan end (insertion extends it, cancellation pulls
// it in). Times are stored exactly as inserted, so the lookup is an
// exact float match.
func (e *Engine) removeFutureRejoin(region geo.RegionID, at float64) {
	times := e.futureRejoin[region]
	i := sort.SearchFloat64s(times, at)
	if i < len(times) && times[i] == at {
		e.futureRejoin[region] = append(times[:i], times[i+1:]...)
	}
}

// closeLedger discards idle records that never closed (drivers still
// waiting at the horizon) and any that never got an estimate.
func (e *Engine) closeLedger() {
	kept := e.metrics.IdleRecords[:0]
	for _, rec := range e.metrics.IdleRecords {
		if !math.IsNaN(rec.Realized) {
			kept = append(kept, rec)
		}
	}
	e.metrics.IdleRecords = kept
}

// Drivers exposes final driver states for post-run inspection.
func (e *Engine) Drivers() []Driver { return e.drivers }

// Riders exposes final rider states for post-run inspection, in
// admission order.
func (e *Engine) Riders() []*Rider { return e.riders }

// processShifts joins drivers whose shift has started and retires
// available drivers whose shift has ended. Busy drivers finish their
// current trip first (handled in rejoinDrivers).
func (e *Engine) processShifts(now float64) {
	if e.shifts == nil {
		return
	}
	for i := range e.drivers {
		d := &e.drivers[i]
		sh := e.shifts[i]
		switch d.State {
		case Offline:
			// Join once the shift opens, unless it has already closed.
			if sh.JoinAt <= now && d.Served == 0 && d.FreeAt == 0 &&
				(sh.LeaveAt == 0 || now < sh.LeaveAt) {
				d.State = Available
				d.FreeAt = now
				e.idx.Insert(int32(i), d.Pos)
				e.openLedger(DriverID(i), now)
			}
		case Available:
			if sh.LeaveAt > 0 && now >= sh.LeaveAt {
				d.State = Offline
				e.idx.Remove(int32(i))
				delete(e.openIdle, DriverID(i)) // censored idle entry
			}
		}
	}
}

// reposition offers long-idle available drivers to the configured
// Repositioner and commits the proposed cruises.
func (e *Engine) reposition(now float64, ctx *Context) {
	if e.cfg.Repositioner == nil {
		return
	}
	after := e.cfg.RepositionAfter
	if after <= 0 {
		after = 300
	}
	for i := range e.drivers {
		d := &e.drivers[i]
		if d.State != Available || now-d.FreeAt < after {
			continue
		}
		region, _ := e.idx.RegionOf(int32(i))
		target, ok := e.cfg.Repositioner.Target(ctx, d, region)
		if !ok {
			continue
		}
		target = e.cfg.Grid.Bounds().Clamp(target)
		cost := e.cfg.Coster.Cost(d.Pos, target)
		if cost <= 0 || math.IsInf(cost, 1) {
			continue
		}
		// The cruise censors the driver's running idle entry; arrival
		// opens a fresh one through the normal rejoin path.
		delete(e.openIdle, DriverID(i))
		from := d.Pos
		d.State = Busy
		d.Pos = target
		d.FreeAt = now + cost
		e.idx.Remove(int32(i))
		e.busy.push(completion{freeAt: d.FreeAt, driver: DriverID(i)})
		e.insertFutureRejoin(e.cfg.Grid.Region(target), d.FreeAt)
		if e.observer != nil {
			e.observer.OnRepositioned(RepositionedEvent{
				Now: now, Driver: DriverID(i), From: from, To: target,
				Cost: cost, ArriveAt: d.FreeAt,
			})
		}
	}
}
