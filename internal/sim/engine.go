package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/heapq"
	"mrvd/internal/obs"
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
	// also implement roadnet.PairCoster — plus one Costs call for the
	// trips of riders holding their first valid pair; plain Costers are
	// priced cell by cell. See buildContext and priceTrips for the exact
	// batched-versus-lazy rules.
	Coster roadnet.Coster
	// Delta is the batch interval in seconds (default 3, Table 2).
	Delta float64
	// TC is the scheduling window t_c in seconds (default 1200 = 20 min).
	TC float64
	// Horizon is the simulated span in seconds (default one day).
	Horizon float64
	// CandidateCap, when positive, prices only the CandidateCap nearest
	// drivers per rider — a k-nearest pre-filter on the spatial index
	// applied before the deadline-feasibility check. The default 0
	// prices every driver within the rider's patience radius, which
	// keeps exact parity with per-pair costing; a cap bounds pricing
	// work per order for very large fleets at the cost of occasionally
	// missing a feasible far driver when nearer ones are
	// deadline-infeasible.
	CandidateCap int
	// PredictRiders returns |^R_k|, the riders predicted to post in
	// region k in [now, now+tc]; nil predicts zeros everywhere. It is
	// called on the first read of a region's prediction in a batch
	// (Context.PredictedRiders), at most once per region and batch, and
	// the value holds for the rest of that batch; a batch that reads no
	// region calls it not at all. Its value must depend on its
	// arguments alone: the engine calls it on its own goroutine, in
	// whatever region order the batch reads.
	PredictRiders func(now, tc float64, k geo.RegionID) int
	// Repositioner optionally relocates long-idle drivers between
	// batches; nil disables repositioning (drivers wait where they
	// dropped off, the paper's base behaviour).
	Repositioner Repositioner
	// RepositionAfter is the idle time in seconds before a driver is
	// offered to the Repositioner (default 300).
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
	if c.RepositionAfter <= 0 {
		c.RepositionAfter = 300
	}
	return c
}

// maxCandidatesPerRider caps valid pairs per rider to the nearest
// feasible drivers. It bounds batch cost at scale.
const maxCandidatesPerRider = 12

// radiusSpeedMPS converts a rider's remaining patience into the search
// radius for feasible drivers. It must upper-bound the real travel
// speed or feasible pairs are missed.
const radiusSpeedMPS = 12

// IdleEstimating is an optional Dispatcher extension: dispatchers that
// maintain a queueing model report their per-region idle-time estimate,
// which the engine pairs with realized idle times in the ledger
// (Table 3's data). The engine asks before Assign, with the same ctx;
// it must not be retained past the call (see Context).
type IdleEstimating interface {
	EstimateIdle(ctx *Context, region geo.RegionID) float64
}

// completion is a busy driver's entry in Engine.busy: when it frees.
type completion struct {
	freeAt float64
	driver DriverID
}

// completionLess orders Engine.busy by completion time.
func completionLess(a, b completion) bool { return a.freeAt < b.freeAt }

// Engine runs one simulation. Build with New (fixed trace) or
// NewWithSource (streaming orders); Run executes once.
type Engine struct {
	cfg     Config
	src     OrderSource
	srcDone bool
	// dense is cfg.Coster when it implements roadnet.BatchCoster — one
	// CostPairs call per batch (through densePairs when the coster has
	// only Costs), one Costs call per chunk of newly paired riders'
	// trips, two per pooling search — and nil for plain Costers, priced
	// lazily, cell by cell.
	dense   roadnet.PairCoster
	drivers []Driver

	idx     *geo.Index   // available drivers
	busy    []completion // a heapq on completionLess
	waiting []*Rider
	// riderSlab is where admitOrders carves the next Riders from: one
	// allocation per riderSlabSize admissions instead of one per order.
	riderSlab []Rider

	// fc is the batch's Forecast, and holds the scheduled rejoins its
	// driver predictions count.
	fc forecast

	// openIdle maps a rejoined driver to its pending ledger entry.
	openIdle map[DriverID]int
	// unestimated lists, in opening order, the ledger entries opened
	// since the last estimate sweep (plus any whose estimate came back
	// NaN) — what StepDispatch visits instead of every idle driver.
	unestimated []int

	// arena is the per-batch scratch buildContext and apply reuse.
	arena batchArena
	// builds numbers the buildContext calls, from 1; scans counts the
	// grid scans candidates made, gathered the entries scans and change
	// logs added to candidate lists, and ordered the entries a sort,
	// a selection or a joiner's insertion put in nearest-first order.
	builds                   uint32
	scans, gathered, ordered int

	// scen is the disruption machinery, nil when Config.Scenario is
	// zero-valued — the scenario-free path pays no draws and no checks
	// beyond a nil test.
	scen *scenarioState
	// ps is the pooling machinery, nil unless Config.Pooling enables
	// multi-rider trips — the single-trip path pays nothing beyond a
	// nil test.
	ps *poolState
	// obs is the observability machinery, nil unless Config.Obs wires
	// a registry or tracer; its direct calls (admission stamp and
	// search tallies only) are no-ops on the nil receiver.
	obs *obsState
	// clock times the batch phases: dispatch always, the rest with obs.
	clock stopwatch
	// observer is the one stream every emit site fires: obs in front of
	// Config.Observer, either alone, or nil (no event is constructed).
	observer Observer
	// cancelSrc is the order source's cancellation feed when it has one
	// (ChannelSource); nil otherwise.
	cancelSrc CancelableSource
	// byID indexes the waiting riders by order id for explicit-cancel
	// lookup: an entry leaves with its rider's exit from the waiting
	// set. nil unless cancelSrc is set.
	byID map[trace.OrderID]*Rider

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
		cfg:      cfg,
		src:      src,
		idx:      geo.NewIndex(cfg.Grid),
		fc:       newForecast(cfg),
		openIdle: make(map[DriverID]int),
		arena:    newBatchArena(cfg.Grid.NumRegions()),
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
	e.metrics.DispatchPhase = obs.HistogramSnapshot{
		Bounds: obs.DefBuckets, Buckets: make([]int64, len(obs.DefBuckets)+1)}
	e.observer = cfg.Observer
	if cfg.Obs.Enabled() {
		e.obs = newObsState(cfg.Obs, &e.clock)
		e.observer = e.obs
		if cfg.Observer != nil {
			e.observer = Observers{e.obs, cfg.Observer}
		}
	}
	if cs, ok := src.(CancelableSource); ok {
		e.cancelSrc = cs
		e.byID = make(map[trace.OrderID]*Rider)
	}
	e.drivers = make([]Driver, len(driverStarts))
	for i, p := range driverStarts {
		e.drivers[i] = Driver{ID: DriverID(i), State: Available, Pos: cfg.Grid.Bounds().Clamp(p), FreeAt: 0}
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
// admission from the source, trip completions, rider cancellations
// (which fire OnCanceled) and rider reneging (which fires OnExpired).
// Cancellations are processed before reneges: a drawn cancellation
// time always precedes the deadline, so in model time the rider left
// first. It must be preceded by Begin and followed — on the same
// engine goroutine — by StepDispatch for the same now, unless the run
// is ending.
func (e *Engine) StepAdmit(now float64) {
	e.clock.start(phaseAdmit)
	e.admitOrders(now)
	e.rejoinDrivers(now)
	e.processCancels(now)
	e.renegeExpired(now)
	e.clock.lap(phaseAdmit)
}

// StepDispatch runs the dispatch phase of the batch at time now: batch
// context construction, the OnBatchStart hook, idle-estimate capture,
// the dispatcher's assignment and its commitment, and repositioning.
func (e *Engine) StepDispatch(now float64, d Dispatcher) error {
	e.clock.start(phaseBuild)
	bctx := e.buildContext(now)
	e.clock.lap(phaseBuild)
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

	e.clock.start(phaseDispatch)
	assignments := d.Assign(bctx)
	e.metrics.DispatchPhase.Observe(e.clock.lap(phaseDispatch)) // the lap also starts apply
	e.metrics.Batches++

	if err := e.apply(now, bctx, assignments); err != nil {
		return err
	}
	e.reposition(now, bctx)
	e.clock.lap(phaseApply)
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

// EachJoined visits, in ascending id order, every driver that became
// available since the last StepDispatch — the starting fleet, trip,
// cruise and cooldown completions, AddDriver hand-offs —
// with the region it stands in. An available driver never moves, so
// these are the only drivers whose region differs from the one they
// were last seen in: what a sharded runtime's fleet re-homing checks
// between the admit and dispatch steps. Every path that makes a driver
// available opens an idle-ledger entry, so the list is the ledger's
// unestimated one (which may also carry a few long-idle drivers whose
// estimate is being retried). It must not be called concurrently with
// stepping.
func (e *Engine) EachJoined(f func(id DriverID, region geo.RegionID)) {
	// The sorted visit list borrows the table patch's tail, which every
	// buildContext refills and nothing reads in between: the one list
	// as long as the fleet (the starting fleet, all joining at Begin)
	// costs no allocation the first batch would not have made.
	a := &e.arena
	joined := slices.Grow(a.tail[:0], len(e.unestimated))
	for _, rec := range e.unestimated {
		if e.ledgerOpen(rec) {
			joined = append(joined, int32(e.metrics.IdleRecords[rec].Driver))
		}
	}
	a.tail = joined
	slices.Sort(joined)
	regions := e.idx.Regions()
	for _, id := range joined {
		f(DriverID(id), regions[id])
	}
}

// RemoveDriver withdraws an available driver from this engine — the
// donor half of cross-engine fleet re-homing. The driver's slot stays
// allocated but permanently inert (Departed), its open idle-ledger
// entry is censored, and its position and idle anchor are returned so
// the receiving engine can re-create it faithfully. Only available
// drivers can be withdrawn.
func (e *Engine) RemoveDriver(id DriverID) (pos geo.Point, freeAt float64, ok bool) {
	if int(id) >= len(e.drivers) || e.drivers[id].State != Available {
		return geo.Point{}, 0, false
	}
	d := &e.drivers[id]
	d.State = Departed
	e.idx.Remove(int32(id))
	delete(e.openIdle, id) // censored idle entry
	return d.Pos, d.FreeAt, true
}

// AddDriver admits a driver handed off by another engine: it joins
// available at p with its idle anchor (freeAt, the time it last became
// available) preserved, opening a fresh idle-ledger entry. The new
// local id is returned; the caller maintains any mapping to a global
// fleet numbering.
func (e *Engine) AddDriver(p geo.Point, freeAt float64) DriverID {
	id := DriverID(len(e.drivers))
	p = e.cfg.Grid.Bounds().Clamp(p)
	e.drivers = append(e.drivers, Driver{ID: id, State: Available, Pos: p, FreeAt: freeAt})
	e.idx.Insert(int32(id), p)
	e.openLedger(id, freeAt)
	return id
}

// riderSlabSize is how many Riders one admission allocation holds.
const riderSlabSize = 256

// admitOrders pulls newly posted orders from the source into the waiting
// set. Orders from non-validating custom sources are checked here: a
// structurally broken order is a programming error and panics, matching
// New's construction-time check. A rider's trip is priced later, by the
// first batch that reads it (priceTrips).
func (e *Engine) admitOrders(now float64) {
	ready, done := e.src.Poll(now)
	e.srcDone = done
	for _, o := range ready {
		if err := o.Valid(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		if len(e.riderSlab) == 0 {
			e.riderSlab = make([]Rider, riderSlabSize)
		}
		r := &e.riderSlab[0]
		e.riderSlab = e.riderSlab[1:]
		*r = Rider{
			Order:        o,
			Status:       WaitingStatus,
			TripCost:     math.NaN(),
			PickupRegion: e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(o.Pickup)),
			DestRegion:   e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(o.Dropoff)),
			scan:         e.idx.Prepare(o.Pickup),
		}
		if e.scen != nil && e.scen.cancel != nil {
			if at, ok := e.scen.cancel.CancelTime(e.scen.rng.Float64(), o.PostTime, o.Deadline); ok {
				r.CancelAt = at
			}
		}
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
// compaction pass. The source holds a cancel until it has released the
// order (CancelableSource), so an explicit cancel names a rider the
// engine admitted: one still waiting is canceled; in pooling mode one
// assigned to an active plan may cancel off it, as long as they are
// not yet onboard; any other id (a terminal order, or one that never
// existed) is dropped.
func (e *Engine) processCancels(now float64) {
	canceled := false
	if e.cancelSrc != nil {
		for _, id := range e.cancelSrc.PollCancels() {
			// A rider canceled earlier in this loop keeps its byID
			// entry until the compaction below.
			if r, ok := e.byID[id]; ok && r.Status == WaitingStatus {
				e.cancelRider(now, r, true)
				canceled = true
			} else if e.ps != nil {
				if pr, ok := e.ps.riders[id]; ok {
					e.cancelPooled(now, pr)
				}
			}
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
// set, and from byID, in one stable pass, preserving admission order.
func (e *Engine) compactWaiting() {
	kept := e.waiting[:0]
	for _, r := range e.waiting {
		if r.Status == WaitingStatus {
			kept = append(kept, r)
		} else {
			delete(e.byID, r.Order.ID)
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
		c := heapq.Pop(&e.busy, completionLess)
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
// available pool and opens its idle-ledger entry.
func (e *Engine) rejoin(id DriverID, freeAt float64) {
	drv := &e.drivers[id]
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
// cruise, a decline or a re-homing.
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
			delete(e.byID, r.Order.ID)
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

// buildContext snapshots the batch state, gathers each waiting rider's
// candidate drivers (Engine.candidates), prices the candidate
// driver-to-pickup pairs — in one PairCoster call for a batch coster —
// precomputes the valid pairs, and prices the trips their riders hold
// for the first time (priceTrips). Every slice is the arena's; the
// Context itself must stay fresh — dispatchers key per-batch caches on
// the *Context they were handed.
func (e *Engine) buildContext(now float64) *Context {
	grid := e.cfg.Grid
	a := &e.arena
	e.fc.begin(now)
	// The last batch's riders are uncounted instead of clearing every
	// region.
	for _, k := range a.riderRegion {
		a.waitingPerRegion[k]--
	}

	// Available drivers, in id order for determinism. The change log the
	// patch drains names the drivers every carried list must re-test.
	e.builds++
	e.patchDriverTable()
	regions := e.idx.Regions()
	a.joined = a.joined[:0]
	for _, id := range a.changed {
		a.drained[id] = e.builds
		if regions[id] >= 0 {
			a.joined = append(a.joined, id)
		}
	}

	// Waiting riders and their candidate drivers, each rider's list a
	// nearest-first prefix over an unordered tail (Engine.candidates).
	a.riders, a.riderRegion = a.riders[:0], a.riderRegion[:0]
	a.cand, a.prevCand = a.prevCand[:0], a.cand
	a.targets = a.targets[:0]
	for _, r := range e.waiting {
		a.riders = append(a.riders, r)
		a.riderRegion = append(a.riderRegion, r.PickupRegion)
		a.waitingPerRegion[r.PickupRegion]++
		lo := len(a.cand)
		sorted := e.candidates(r, (r.Order.Deadline-now)*radiusSpeedMPS)
		r.candLo, r.candHi, r.candSorted, r.candBuild = int32(lo), int32(len(a.cand)), int32(sorted), e.builds
		a.targets = append(a.targets, r.Order.Pickup)
	}

	// A batch coster (see Engine.dense) prices every rider's candidates
	// in the one call per batch the API documents — what lets a graph
	// coster run one Dijkstra per unique source, truncated at that
	// driver's own farthest candidate rider, or a remote coster batch its
	// round-trips. The batch's unique candidate drivers, in
	// first-appearance order, are its sources; driverRow is -1 but at
	// the slots the last batch's sources held, which are cleared first.
	// A plain Coster (closed forms, nothing to amortize) prices in the
	// pair loop below exactly the cells it reads. Either way the prices
	// are bitwise-identical to per-pair Coster queries.
	if e.dense != nil {
		for _, slot := range a.sourceSlot {
			a.driverRow[slot] = -1
		}
		for len(a.driverRow) < len(a.drivers) {
			a.driverRow = append(a.driverRow, -1)
		}
		a.sources, a.sourceSlot = a.sources[:0], a.sourceSlot[:0]
		a.pairSrc, a.pairTgt = a.pairSrc[:0], a.pairTgt[:0]
		for wi, r := range e.waiting {
			for _, nb := range a.cand[r.candLo:r.candHi] {
				slot := a.driverSlot[nb.ID]
				if a.driverRow[slot] == -1 {
					a.driverRow[slot] = int32(len(a.sources))
					a.sources = append(a.sources, a.drivers[slot].Pos)
					a.sourceSlot = append(a.sourceSlot, slot)
				}
				a.pairSrc = append(a.pairSrc, a.driverRow[slot])
				a.pairTgt = append(a.pairTgt, int32(wi))
			}
		}
		a.pairCost = slices.Grow(a.pairCost[:0], len(a.pairSrc))[:len(a.pairSrc)]
		e.dense.CostPairs(a.sources, a.targets, a.pairSrc, a.pairTgt, a.pairCost)
	}

	// Valid pairs (Definition 3): candidates are taken nearest-first and
	// kept while the driver can reach the pickup before the deadline, up
	// to maxCandidatesPerRider feasible pairs per rider. Lazily priced
	// cells preserve the per-pair path's work profile — pricing stops
	// with the cap, not at the radius. The loop walks a list's ordered
	// prefix in place; reaching its end with found feasible pairs, it
	// orders the tail's maxCandidatesPerRider-found nearest onto it
	// (orderNearest) — the tail's entries all follow the prefix's, so
	// the extended prefix is still the list's nearest-first prefix, and
	// the rider carries it to the next build. A batch coster's lists
	// are ordered whole, so its price for cand[c] is pairCost[c]:
	// pairSrc lists the pairs in cand's order.
	a.pairs, a.unpriced = a.pairs[:0], a.unpriced[:0]
	for wi, r := range e.waiting {
		found := 0
		sorted := r.candLo + r.candSorted
		for c := r.candLo; c < r.candHi && found < maxCandidatesPerRider; c++ {
			if c == sorted {
				n := orderNearest(a.cand[c:r.candHi], maxCandidatesPerRider-found)
				sorted += int32(n)
				r.candSorted += int32(n)
				e.ordered += n
			}
			nb := a.cand[c]
			pc := math.NaN()
			if e.dense != nil {
				pc = a.pairCost[c]
			}
			if math.IsNaN(pc) {
				pc = e.cfg.Coster.Cost(e.drivers[nb.ID].Pos, a.targets[wi])
			}
			if now+pc > r.Order.Deadline {
				continue
			}
			a.pairs = append(a.pairs, Pair{
				R:          int32(wi),
				D:          a.driverSlot[nb.ID],
				PickupCost: pc,
				DestRegion: r.DestRegion,
			})
			found++
		}
		if found > 0 && math.IsNaN(r.TripCost) {
			a.unpriced = append(a.unpriced, r)
		}
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
	ctx := &Context{
		Now:                now,
		TC:                 e.cfg.TC,
		Grid:               grid,
		Coster:             e.cfg.Coster,
		Riders:             a.riders,
		Drivers:            a.drivers,
		Pairs:              a.pairs,
		WaitingPerRegion:   a.waitingPerRegion,
		AvailablePerRegion: a.availablePerRegion,
		Forecast:           &e.fc,
		RiderRegion:        a.riderRegion,
		DriverRegion:       a.driverRegion,
	}
	// Pool candidates' trips are priced with the paired riders', before
	// pool.Best reads them.
	var plans []poolPlan
	var cands [][]int
	if e.ps != nil {
		plans, cands = e.poolCandidates(now)
	}
	e.priceTrips()
	if e.ps != nil {
		e.buildPoolOptions(ctx, plans, cands)
	}
	return ctx
}

// candidates appends to the arena's cand rider r's candidate drivers —
// every available driver within radius of the pickup, the distance the
// rider's remaining patience allows, or with a CandidateCap the
// CandidateCap nearest of them — and returns the length of the list's
// ordered prefix. A rider the last build listed carries its list
// forward, patched from this build's change log (arena.changed, its
// indexed ids arena.joined); any other scans the index.
//
// The list is a nearest-first (geo.NearCmp) prefix over an unordered
// tail, every tail entry after the prefix's last. A fresh radius list
// orders only its maxCandidatesPerRider nearest (orderNearest) — what
// the pair loop reads unless too few are feasible, when it orders more
// (buildContext). With a CandidateCap or a batch coster, which prices
// every entry in list order, a list is ordered whole: all prefix.
//
// The patch is exact, for four reasons. The deadline is fixed at
// admission and now only grows, so the radius only shrinks: an entry
// stays a candidate exactly when its distance, which has not changed,
// is still within it. The index holds exactly the available drivers,
// and an indexed driver's membership and position change only through
// logged operations (geo.Index.Move logs a move within a region too):
// a driver the log does not name is where it was, and a driver that
// was no candidate and is not named still is none. The log's indexed
// drivers are tested afresh, by the scan's own per-item test
// (AppendListed). And a list is carried only from the build
// immediately before, whose index state the log is a diff from.
//
// The patch keeps the prefix/tail shape. Dropping logged entries
// leaves a subsequence of each part: the prefix stays ordered, and its
// last entry can only move nearer. Entries the shrunken radius drops
// are the farthest — a dropped prefix entry takes every later one and
// the whole tail with it, as none is nearer — so what is kept of the
// prefix is the kept list's ordered prefix. A joiner nearer than the
// prefix's last entry is inserted into the prefix, whose last entry
// stays; any other follows that entry, and joins the tail unordered.
// A whole-ordered list then orders its tail of joiners and, with a
// cap, is cut back to it. Only a full capped list that lost a logged
// member rescans: a driver beyond the cap may now belong in it.
func (e *Engine) candidates(r *Rider, radius float64) int {
	a := &e.arena
	k := e.cfg.CandidateCap
	whole := k > 0 || e.dense != nil
	lo := len(a.cand)
	if r.candBuild != 0 && r.candBuild == e.builds-1 {
		lost, n := false, 0
		for i, nb := range a.prevCand[r.candLo:r.candHi] {
			if a.drained[nb.ID] == e.builds {
				lost = true
			} else if nb.Distance <= radius {
				a.cand = append(a.cand, nb)
				if i < int(r.candSorted) {
					n++
				}
			}
		}
		if k <= 0 || !lost || int(r.candHi-r.candLo) < k {
			kept := len(a.cand)
			if len(a.joined) > 0 {
				a.cand = e.idx.AppendListed(a.cand, r.Order.Pickup, r.scan, radius, a.joined)
				e.gathered += len(a.cand) - kept
			}
			list := a.cand[lo:]
			for i := kept - lo; i < len(list); i++ {
				if x := list[i]; n > 0 && nearer(x, list[n-1]) {
					list[i] = list[n] // the tail's first entry takes x's cell
					insertNearest(list[:n+1], x)
					n++
					e.ordered++
				}
			}
			if whole {
				slices.SortFunc(list[n:], geo.NearCmp)
				e.ordered += len(list) - n
				n = len(list)
				if k > 0 && n > k {
					a.cand, n = a.cand[:lo+k], k
				}
			}
			return n
		}
		a.cand = a.cand[:lo]
	}
	e.scans++
	n := 0
	if whole {
		a.cand = e.idx.AppendNearest(a.cand, r.Order.Pickup, r.scan, k, radius)
		n = len(a.cand) - lo
	} else {
		a.cand = e.idx.AppendWithin(a.cand, r.Order.Pickup, r.scan, radius)
		n = orderNearest(a.cand[lo:], maxCandidatesPerRider)
	}
	e.gathered += len(a.cand) - lo
	e.ordered += n
	return n
}

// orderNearest moves the m nearest entries of list (all of them when
// it holds fewer) to its front in nearest-first order, leaving every
// other entry behind them in no particular order, and returns how many
// it ordered: all of list when it holds at most 2m entries, and
// otherwise m, selected by a bounded max-heap — an entry nearer than
// the root, the farthest of the m nearest seen so far, swaps places
// with it — before an insertion sort orders them. m must be positive.
// Entries past the ordered ones follow the last of them: each was
// farther than some root, and the root only moves nearer.
func orderNearest(list []geo.Neighbor, m int) int {
	n := len(list)
	if n > 2*m {
		h := list[:m]
		heapq.Init(h, farther)
		for i := m; i < len(list); i++ {
			if nearer(list[i], h[0]) {
				h[0], list[i] = list[i], h[0]
				heapq.Down(h, 0, farther)
			}
		}
		n = m
	}
	for i := 1; i < n; i++ {
		insertNearest(list[:i+1], list[i])
	}
	return n
}

// insertNearest writes x into list, whose entries but the last are
// nearest-first, where it keeps the whole list so; the last cell's
// entry is overwritten.
func insertNearest(list []geo.Neighbor, x geo.Neighbor) {
	j := len(list) - 1
	for ; j > 0 && nearer(x, list[j-1]); j-- {
		list[j] = list[j-1]
	}
	list[j] = x
}

// nearer is geo.NearCmp's order, distance then id, as a less function.
// Plain comparisons decide it exactly: an index query never returns a
// NaN distance.
func nearer(a, b geo.Neighbor) bool {
	return a.Distance < b.Distance || a.Distance == b.Distance && a.ID < b.ID
}

// farther is nearer reversed, the order of orderNearest's max-heap.
func farther(a, b geo.Neighbor) bool { return nearer(b, a) }

// priceTrips prices the trips the batch reads that no earlier batch
// priced — a.unpriced, the riders holding their first valid pair or
// pool candidate — and copies them into the batch's pairs; a rider that
// reneges unpaired is never priced. A batch coster prices them in dense
// Costs calls, a plain Coster cell by cell, as with pickup costs. Only
// the diagonal is read, so the riders are chunked: within a chunk a
// graph coster dedups pickups and stops each search at the chunk's
// dropoffs. The values are bitwise those of per-pair Cost (the
// BatchCoster contract).
func (e *Engine) priceTrips() {
	const chunk = 256
	a := &e.arena
	unpriced := a.unpriced
	if e.dense == nil {
		for _, r := range unpriced {
			r.TripCost = e.cfg.Coster.Cost(r.Order.Pickup, r.Order.Dropoff)
		}
	}
	for lo := 0; e.dense != nil && lo < len(unpriced); lo += chunk {
		part := unpriced[lo:min(lo+chunk, len(unpriced))]
		a.pickups, a.dropoffs = a.pickups[:0], a.dropoffs[:0]
		for _, r := range part {
			a.pickups = append(a.pickups, r.Order.Pickup)
			a.dropoffs = append(a.dropoffs, r.Order.Dropoff)
		}
		matrix := e.dense.Costs(a.pickups, a.dropoffs)
		for i, r := range part {
			r.TripCost = matrix[i][i]
		}
	}
	for i := range a.pairs {
		a.pairs[i].TripCost = a.riders[a.pairs[i].R].TripCost
	}
}

// patchDriverTable brings the driver table — Drivers, DriverRegion,
// the slot table and AvailablePerRegion — up to date with the index,
// which holds exactly the available fleet: no Driver is loaded to
// learn it is busy. The index logs every id whose membership or
// position changed since the last drain. Their old regions are
// uncounted, the ids sorted and merged into the id-ordered table from
// the first slot at or past the lowest of them — the prefix below it
// stands — and their new regions counted: an id logged for a move
// within its region keeps its slot, region and count. Positions are
// read through the table's pointers. A grown fleet (AddDriver) may
// have moved e.drivers, whose elements the table points at: the
// pointers are re-seated.
func (e *Engine) patchDriverTable() {
	a := &e.arena
	if n := len(e.drivers); len(a.driverSlot) != n {
		a.driverSlot = slices.Grow(a.driverSlot, n-len(a.driverSlot))[:n]
		a.drained = slices.Grow(a.drained, n-len(a.drained))[:n]
		for slot, id := range a.driverID {
			a.drivers[slot] = &e.drivers[id]
		}
	}
	changed := e.idx.DrainChanges(a.changed[:0])
	a.changed = changed
	if len(changed) == 0 {
		return
	}
	for _, id := range changed {
		// A slot is current only if the id it holds points back: the
		// cell of an id that left the table is stale.
		if slot := a.driverSlot[id]; int(slot) < len(a.driverID) && a.driverID[slot] == id {
			a.availablePerRegion[a.driverRegion[slot]]--
		}
	}
	slices.Sort(changed)
	from, _ := slices.BinarySearch(a.driverID, changed[0])
	a.tail = append(a.tail[:0], a.driverID[from:]...)
	regions := e.idx.Regions()
	ids, i := a.driverID[:from], 0
	for _, id := range changed {
		for ; i < len(a.tail) && a.tail[i] < id; i++ {
			ids = append(ids, a.tail[i])
		}
		if i < len(a.tail) && a.tail[i] == id {
			i++
		}
		if r := regions[id]; r >= 0 {
			ids = append(ids, id)
			a.availablePerRegion[r]++
		}
	}
	ids = append(ids, a.tail[i:]...)
	a.driverID = ids
	a.drivers = slices.Grow(a.drivers[:from], len(ids)-from)[:len(ids)]
	a.driverRegion = slices.Grow(a.driverRegion[:from], len(ids)-from)[:len(ids)]
	for slot := from; slot < len(ids); slot++ {
		id := ids[slot]
		a.driverSlot[id] = int32(slot)
		a.drivers[slot] = &e.drivers[id]
		a.driverRegion[slot] = regions[id]
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
			// The batch already priced every valid pair; only assignments
			// outside ctx.Pairs (custom dispatchers straying from them)
			// fall back to a fresh Coster query.
			pickupCost = ctx.PickupCost(a.D, a.R)
			if now+pickupCost > rider.Order.Deadline {
				return fmt.Errorf("sim: driver %d cannot reach rider %d before deadline (%.1f > %.1f)",
					drv.ID, rider.Order.ID, now+pickupCost, rider.Order.Deadline)
			}
		}
		trip := ctx.TripCost(a.R)

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
			heapq.Push(&e.busy, completion{freeAt: freeAt, driver: drv.ID}, completionLess)
		}

		e.fc.addRejoin(rider.DestRegion, freeAt)

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
	heapq.Push(&e.busy, completion{freeAt: retryAt, driver: id}, completionLess)
	e.fc.addRejoin(e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(d.Pos)), retryAt)
	e.metrics.Declines++
	if e.observer != nil {
		e.observer.OnDeclined(DeclinedEvent{Now: now, Rider: rider, Driver: id, RetryAt: retryAt})
	}
}

// closeLedger discards idle records that never closed (drivers still
// waiting at the horizon: a NaN Realized). Records that never got an
// estimate (a NaN Estimate) are kept; readers that need one filter them.
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

// reposition offers long-idle available drivers to the configured
// Repositioner and commits the proposed cruises.
func (e *Engine) reposition(now float64, ctx *Context) {
	if e.cfg.Repositioner == nil {
		return
	}
	// The batch's available drivers, in id order; apply marked those it
	// committed or declined busy.
	for _, d := range ctx.Drivers {
		if d.State != Available || now-d.FreeAt < e.cfg.RepositionAfter {
			continue
		}
		id := d.ID
		region, _ := e.idx.RegionOf(int32(id))
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
		delete(e.openIdle, id)
		from := d.Pos
		d.State = Busy
		d.Pos = target
		d.FreeAt = now + cost
		e.idx.Remove(int32(id))
		heapq.Push(&e.busy, completion{freeAt: d.FreeAt, driver: id}, completionLess)
		e.fc.addRejoin(e.cfg.Grid.Region(target), d.FreeAt)
		if e.observer != nil {
			e.observer.OnRepositioned(RepositionedEvent{
				Now: now, Driver: id, From: from, To: target,
				Cost: cost, ArriveAt: d.FreeAt,
			})
		}
	}
}
