package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/sim"
	"mrvd/internal/stats"
	"mrvd/internal/trace"
)

// Config parameterizes a partitioned runtime.
type Config struct {
	// Sim is the per-engine template: grid, coster, batch timing,
	// horizon, prediction callback, repositioner, observer and pacing
	// all mean what they mean for one sim.Engine, and every shard's
	// engine shares them. The Observer receives the aggregated city-wide
	// stream (driver ids are global fleet ids).
	Sim sim.Config
	// Shards is the engine count (required, >= 1).
	Shards int
	// Policy is the frontier boundary policy (default StrictOwnership).
	Policy BoundaryPolicy
	// Weights optionally balances the partition by expected per-region
	// load instead of region count (see NewWeightedPartition) — use
	// OrderWeights over the trace, or a demand model's intensities.
	// Essential for hotspot-concentrated cities, where equal-area
	// stripes would give one shard most of the work.
	Weights []float64
}

// Stats is one shard's live snapshot. Admission counts are published
// when the round's orders are routed (before any engine steps), fleet
// and queue counts after the admit steps and re-homing, and the
// lifecycle tallies — copies of the engine's own Metrics, not a second
// count — at that point, after each dispatch step, and ahead of every
// event forwarded: whoever saw an order's outcome finds it counted here.
type Stats struct {
	Shard           int `json:"shard"`
	Regions         int `json:"regions"`
	FrontierRegions int `json:"frontier_regions"`
	Drivers         int `json:"drivers"`
	Waiting         int `json:"waiting"`
	Available       int `json:"available"`
	// Admitted counts orders routed to this shard; BorrowedIn the subset
	// admitted here under CandidateBorrow although another shard owns
	// their pickup region.
	Admitted   int `json:"admitted"`
	BorrowedIn int `json:"borrowed_in"`
	// RehomedIn counts drivers migrated into this shard by fleet
	// re-homing (trips whose dropoff crossed a frontier).
	RehomedIn int `json:"rehomed_in"`
	Served    int `json:"served"`
	Reneged   int `json:"reneged"`
	// Canceled counts rider-initiated cancellations admitted by this
	// shard; Declined counts driver-declined assignments here.
	Canceled int `json:"canceled"`
	Declined int `json:"declined"`
	// SharedServed counts pooled riders dropped off by this shard's
	// fleet; PickedUp/DroppedOff count pooled stop completions. All
	// three stay zero with pooling disabled.
	SharedServed int `json:"shared_served"`
	PickedUp     int `json:"picked_up"`
	DroppedOff   int `json:"dropped_off"`
	Batches      int `json:"batches"`
	// Dispatch wall time of this shard's StepDispatch per round, ms.
	AvgBatchMS  float64 `json:"avg_batch_ms"`
	MaxBatchMS  float64 `json:"max_batch_ms"`
	LastBatchMS float64 `json:"last_batch_ms"`
}

// Runtime drives N sim.Engines over a partitioned city in lockstep
// batch rounds, all on the goroutine that calls Run. Build with New,
// execute once with Run; Stats may be called concurrently with Run from
// other goroutines.
type Runtime struct {
	cfg    Config
	part   *Partition
	router *Router
	src    sim.OrderSource
	sized  int // total orders when src is sized, else -1

	engines []*sim.Engine
	feeds   []*feedSource
	// cancelSrc is the city-wide source's cancellation feed, nil when it
	// has none.
	cancelSrc sim.CancelableSource
	park      sim.ParkableSource // the source, if unpaced and parkable: idle rounds block on it
	// routed records which shard admitted each order — the address book
	// rider-initiated cancels are routed by. Only built for cancelable
	// sources over two or more shards: a 1-shard runtime has one
	// possible addressee and keeps no book.
	routed map[trace.OrderID]ID
	// pendingCancels holds cancels for orders the city-wide source has
	// not released yet; retried in FIFO order every round. srcDone
	// records the source's done signal: once set, unmatched cancels can
	// never match and are dropped instead of retried.
	pendingCancels []trace.OrderID
	srcDone        bool
	// global[i][local] is the fleet-wide driver id of shard i's local
	// driver index — the remap the event aggregator applies.
	global [][]sim.DriverID

	// downstream is the city-wide observer (nil: engines construct no
	// events).
	downstream sim.Observer

	// stats is the published view, the one thing other goroutines read.
	// coord holds the columns routing and re-homing write (Admitted,
	// BorrowedIn, Drivers, RehomedIn, Waiting, Available), lock-free
	// until publish copies them over.
	statsMu    sync.Mutex
	stats      []Stats
	coord      []Stats
	batchSumMS []float64

	// Per-shard registry instruments, pre-resolved so the round loop
	// never takes the registry's family lock; all nil when Sim.Obs has
	// no registry.
	obsRound    []*obs.Histogram
	obsBorrowed []*obs.Counter
	obsRehomed  []*obs.Counter
}

// New partitions the grid, splits the fleet by start region, and builds
// one engine per shard. src supplies the city-wide order stream —
// anything a bare engine accepts (a SliceSource trace, a live
// ChannelSource) — and is polled only from the goroutine that calls Run.
func New(cfg Config, src sim.OrderSource, starts []geo.Point) (*Runtime, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: nil order source")
	}
	cfg.Sim = cfg.Sim.WithDefaults()
	part, err := NewWeightedPartition(cfg.Sim.Grid, cfg.Shards, cfg.Weights)
	if err != nil {
		return nil, err
	}
	if len(cfg.Sim.Shifts) > 0 && len(cfg.Sim.Shifts) != len(starts) {
		return nil, fmt.Errorf("shard: %d shifts for %d drivers", len(cfg.Sim.Shifts), len(starts))
	}

	rt := &Runtime{
		cfg:        cfg,
		part:       part,
		src:        src,
		sized:      -1,
		engines:    make([]*sim.Engine, cfg.Shards),
		feeds:      make([]*feedSource, cfg.Shards),
		global:     make([][]sim.DriverID, cfg.Shards),
		downstream: cfg.Sim.Observer,
		stats:      make([]Stats, cfg.Shards),
		coord:      make([]Stats, cfg.Shards),
		batchSumMS: make([]float64, cfg.Shards),
	}
	if sized, ok := src.(sim.SizedSource); ok {
		rt.sized = sized.TotalOrders()
	}

	// Deal the fleet: a driver belongs to the shard owning its start
	// region, keeping its global index for event remapping.
	shardStarts := make([][]geo.Point, cfg.Shards)
	shardShifts := make([][]sim.Shift, cfg.Shards)
	for i, p := range starts {
		s := part.OwnerOf(p)
		rt.global[s] = append(rt.global[s], sim.DriverID(i))
		shardStarts[s] = append(shardStarts[s], p)
		if len(cfg.Sim.Shifts) > 0 {
			shardShifts[s] = append(shardShifts[s], cfg.Sim.Shifts[i])
		}
	}

	if cs, ok := src.(sim.CancelableSource); ok {
		rt.cancelSrc = cs
		if cfg.Shards > 1 {
			rt.routed = make(map[trace.OrderID]ID)
		}
	}
	if ps, ok := src.(sim.ParkableSource); ok && cfg.Sim.PaceFactor == 0 {
		rt.park = ps // a paced session's clock is the wall clock
	}

	if r := cfg.Sim.Obs.Registry; r != nil {
		roundHist := r.HistogramVec("mrvd_shard_round_seconds",
			"Wall time of one shard's dispatch step per lockstep round.",
			obs.DefBuckets, "shard")
		borrowed := r.CounterVec("mrvd_shard_borrowed_total",
			"Frontier orders admitted to this shard under CandidateBorrow although another shard owns their pickup region.",
			"shard")
		rehomed := r.CounterVec("mrvd_shard_rehomed_total",
			"Drivers migrated into this shard by fleet re-homing.",
			"shard")
		// This loop IS the PR 8 pre-resolution rule: it runs once at
		// construction to resolve each shard's children, which the hot
		// path then uses without further With lookups.
		for s := 0; s < cfg.Shards; s++ {
			label := strconv.Itoa(s)
			rt.obsRound = append(rt.obsRound, roundHist.With(label))      //mrvdlint:ignore hotlabel construction-time pre-resolution, runs once per shard at startup
			rt.obsBorrowed = append(rt.obsBorrowed, borrowed.With(label)) //mrvdlint:ignore hotlabel construction-time pre-resolution, runs once per shard at startup
			rt.obsRehomed = append(rt.obsRehomed, rehomed.With(label))    //mrvdlint:ignore hotlabel construction-time pre-resolution, runs once per shard at startup
		}
	}

	probes := make([]SupplyProbe, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		ecfg := cfg.Sim
		if rt.downstream != nil {
			ecfg.Observer = &tap{rt: rt, shard: ID(s)}
		}
		ecfg.PaceFactor = 0          // Run paces the rounds
		ecfg.StopWhenDrained = false // Run decides drain city-wide
		ecfg.Shifts = shardShifts[s]
		ecfg.Obs.Shard = s
		if cfg.Shards > 1 && ecfg.Scenario.Enabled() {
			// Decorrelate the per-shard disruption streams. A 1-shard
			// runtime keeps the parent seed so it reproduces the
			// bare engine's draws — and hence its events — exactly.
			ecfg.Scenario.Seed = stats.SplitSeed(cfg.Sim.Scenario.Seed, s)
		}
		rt.feeds[s] = &feedSource{}
		rt.engines[s] = sim.NewWithSource(ecfg, rt.feeds[s], shardStarts[s])
		probes[s] = rt.engines[s]
		rt.coord[s].Drivers = len(shardStarts[s])
		rt.stats[s] = Stats{
			Shard:           s,
			Regions:         len(part.Regions(ID(s))),
			FrontierRegions: part.FrontierCount(ID(s)),
			Drivers:         len(shardStarts[s]),
		}
	}
	rt.router = NewRouter(part, cfg.Policy, cfg.Sim.RadiusSpeedMPS, probes)
	return rt, nil
}

// NumShards returns the shard count.
func (rt *Runtime) NumShards() int { return rt.cfg.Shards }

// Partition exposes the region-to-shard assignment.
func (rt *Runtime) Partition() *Partition { return rt.part }

// Run executes the lockstep batch loop on the calling goroutine: each
// round routes newly posted orders to their shards, steps every
// engine's admission phase (shard 0..N-1), re-homes the fleet,
// synthesizes one city-wide BatchStart, then steps every engine's
// dispatch phase (shard 0..N-1). newDispatcher builds shard i's
// dispatcher — one instance per shard, since dispatchers are stateful.
// The rounds tick on sim.RunBatches, the clock Engine.Run uses, so
// cancellation and pacing are the same code (a live source yields the
// processor in its Poll, once per round). An idle unpaced session parks
// on a ParkableSource at the top of a round, which then runs at its own
// batch time: the clock stands still while idle. A runtime is single-use.
func (rt *Runtime) Run(ctx context.Context, newDispatcher func(shard int) (sim.Dispatcher, error)) (*sim.Metrics, error) {
	n := rt.cfg.Shards
	dispatchers := make([]sim.Dispatcher, n)
	for i := range dispatchers {
		d, err := newDispatcher(i)
		if err != nil {
			return nil, err
		}
		dispatchers[i] = d
	}
	for _, e := range rt.engines {
		if err := e.Begin(); err != nil {
			return nil, err
		}
	}

	round := 0
	err := sim.RunBatches(ctx, rt.cfg.Sim, func(now float64) (bool, error) {
		if rt.park != nil && rt.idle() {
			rt.park.Park(ctx)
		}
		// Route this round's newly posted orders. The router may probe
		// shard supply (CandidateBorrow).
		ready, done := rt.src.Poll(now)
		for _, o := range ready {
			s, borrowed := rt.router.Route(o, now)
			rt.feeds[s].push(o)
			if rt.routed != nil {
				rt.routed[o.ID] = s
			}
			rt.coord[s].Admitted++
			if borrowed {
				rt.coord[s].BorrowedIn++
				if rt.obsBorrowed != nil {
					rt.obsBorrowed[s].Inc()
				}
			}
		}
		rt.publish()
		if done {
			rt.srcDone = true
			for _, f := range rt.feeds {
				f.markDone()
			}
		}
		rt.routeCancels()

		for _, e := range rt.engines {
			e.StepAdmit(now)
		}
		rt.rehomeFleet()

		waiting, available := rt.snapshotCounts()
		if rt.cfg.Sim.StopWhenDrained && done && rt.allDrained() {
			return true, nil
		}
		if rt.downstream != nil {
			// One city-wide batch boundary per round, in the same
			// admission→renege→BatchStart→dispatch position a bare
			// engine fires it.
			rt.downstream.OnBatchStart(sim.BatchStartEvent{
				Now:       now,
				Batch:     round,
				Waiting:   waiting,
				Available: available,
			})
		}

		for i, e := range rt.engines {
			start := time.Now() //mrvdlint:ignore wallclock per-shard round timing measures real dispatch time, not simulated time
			err := e.StepDispatch(now, dispatchers[i])
			rt.recordBatch(i, time.Since(start)) //mrvdlint:ignore wallclock per-shard round timing measures real dispatch time, not simulated time
			if err != nil {
				return false, err
			}
		}
		round++
		return false, nil
	})
	if err != nil {
		return nil, err
	}

	ms := make([]*sim.Metrics, n)
	for i, e := range rt.engines {
		ms[i] = e.Finish()
	}
	return rt.aggregate(ms), nil
}

// routeCancels forwards rider-initiated cancellation requests from the
// city-wide source to the shard that admitted each order. Cancels whose
// order the source has not released yet are retried next round (the
// order will be routed first); the admitting shard's engine drops
// cancels for already-terminal orders.
func (rt *Runtime) routeCancels() {
	if rt.cancelSrc == nil {
		return
	}
	ids := rt.cancelSrc.PollCancels()
	if rt.routed == nil {
		// One shard: its engine is the only possible addressee, and it
		// already retries ids it has not admitted yet and drops them once
		// its feed is done — no per-order book to keep (or to leak over a
		// long live session).
		for _, id := range ids {
			rt.feeds[0].pushCancel(id)
		}
		return
	}
	if len(rt.pendingCancels) > 0 {
		ids = append(rt.pendingCancels, ids...)
		rt.pendingCancels = nil
	}
	for _, id := range ids {
		if s, ok := rt.routed[id]; ok {
			rt.feeds[s].pushCancel(id)
		} else if !rt.srcDone {
			// Still buffered in the city-wide source; retry once it is
			// routed. After done the id can never arrive: drop it.
			rt.pendingCancels = append(rt.pendingCancels, id)
		}
	}
}

// rehomeFleet migrates every available driver standing in territory
// owned by another shard to that shard's engine — fleet ownership
// follows position. Without it drivers strand: a trip whose dropoff
// lands across a frontier leaves the driver in an engine that will
// never receive orders near it. Runs between the admit and dispatch
// steps, so a driver freed this round is assignable by its new shard in
// the same round. Only drivers that joined an engine's available pool
// since its last dispatch step are looked at (Engine.EachJoined): an
// available driver stays where it was dropped off, so everyone else was
// in place the round before. The visit order (shards ascending, local
// ids ascending) keeps re-homing — and hence the whole run —
// deterministic: a move takes the receiving engine's next local id.
func (rt *Runtime) rehomeFleet() {
	if len(rt.engines) == 1 {
		return
	}
	type move struct {
		id sim.DriverID
		to ID
	}
	var moves []move
	for i, e := range rt.engines {
		moves = moves[:0]
		e.EachJoined(func(id sim.DriverID, region geo.RegionID) {
			if owner := rt.part.Owner(region); owner != ID(i) {
				moves = append(moves, move{id: id, to: owner})
			}
		})
		for _, mv := range moves {
			pos, freeAt, shift, ok := e.RemoveDriver(mv.id)
			if !ok {
				continue
			}
			rt.engines[mv.to].AddDriver(pos, freeAt, shift)
			// The new local id is always the next slot, so the global
			// mapping grows in lockstep with the receiving engine.
			rt.global[mv.to] = append(rt.global[mv.to], rt.global[i][mv.id])
			rt.coord[i].Drivers--
			rt.coord[mv.to].Drivers++
			rt.coord[mv.to].RehomedIn++
			if rt.obsRehomed != nil {
				rt.obsRehomed[mv.to].Inc()
			}
		}
	}
}

// snapshotCounts refreshes every shard's row — tallies, re-homed fleet,
// waiting/available — after the admit steps and re-homing (the last
// step of a run that ends drained) and returns the city-wide sums.
func (rt *Runtime) snapshotCounts() (waiting, available int) {
	for i, e := range rt.engines {
		rt.tally(i)
		c := &rt.coord[i]
		c.Waiting, c.Available = e.Counts()
		waiting += c.Waiting
		available += c.Available
	}
	rt.publish()
	return waiting, available
}

// publish copies the coord columns into the stats under one lock
// acquisition: readers never wait on routing or the re-homing scan.
func (rt *Runtime) publish() {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	for i := range rt.coord {
		c, s := &rt.coord[i], &rt.stats[i]
		s.Admitted, s.BorrowedIn, s.Drivers, s.RehomedIn = c.Admitted, c.BorrowedIn, c.Drivers, c.RehomedIn
		s.Waiting, s.Available = c.Waiting, c.Available
	}
}

// idle reports whether no engine has a rider waiting and no cancel is
// pending here (call only between rounds).
func (rt *Runtime) idle() bool {
	for _, e := range rt.engines {
		if waiting, _ := e.Counts(); waiting > 0 {
			return false
		}
	}
	return len(rt.pendingCancels) == 0
}

// allDrained reports whether every engine is drained (call only between
// rounds).
func (rt *Runtime) allDrained() bool {
	for _, e := range rt.engines {
		if !e.Drained() {
			return false
		}
	}
	return true
}

// tally copies shard i's lifecycle counters from its engine's own
// metrics.
func (rt *Runtime) tally(i int) {
	m := rt.engines[i].Tally()
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	s := &rt.stats[i]
	s.Served, s.Reneged, s.Canceled, s.Declined = m.Served, m.Reneged, m.Canceled, m.Declines
	s.SharedServed, s.PickedUp, s.DroppedOff = m.SharedServed, m.PickedUp, m.DroppedOff
}

// recordBatch folds one shard's dispatch step — its wall time and the
// lifecycle tallies it moved — into the shard's stats.
func (rt *Runtime) recordBatch(i int, d time.Duration) {
	ms := d.Seconds() * 1000
	if rt.obsRound != nil {
		rt.obsRound[i].Observe(d.Seconds())
	}
	rt.tally(i)
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	s := &rt.stats[i]
	s.Batches++
	s.LastBatchMS = ms
	rt.batchSumMS[i] += ms
	s.AvgBatchMS = rt.batchSumMS[i] / float64(s.Batches)
	if ms > s.MaxBatchMS {
		s.MaxBatchMS = ms
	}
}

// Stats returns a snapshot of every shard's live counters. Safe for
// concurrent use with Run.
func (rt *Runtime) Stats() []Stats {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	out := make([]Stats, len(rt.stats))
	copy(out, rt.stats)
	return out
}

// aggregate merges per-shard metrics into one city-wide Metrics whose
// deterministic projection (Summary) matches what a single engine over
// the union would report. BatchSeconds sums each round over the shards:
// they are stepped one after another, so a round takes what its shards
// take together. IdleRecords concatenate shard-major with driver ids
// remapped to the global fleet numbering.
func (rt *Runtime) aggregate(ms []*sim.Metrics) *sim.Metrics {
	if len(ms) == 1 {
		m := ms[0]
		if rt.sized >= 0 {
			m.TotalOrders = rt.sized
		}
		return m
	}
	agg := &sim.Metrics{}
	rounds := 0
	for _, m := range ms {
		agg.Revenue += m.Revenue
		agg.Served += m.Served
		agg.Reneged += m.Reneged
		agg.Canceled += m.Canceled
		agg.Declines += m.Declines
		agg.TotalOrders += m.TotalOrders
		agg.PickupSeconds += m.PickupSeconds
		agg.SharedServed += m.SharedServed
		agg.DetourSeconds += m.DetourSeconds
		agg.PickedUp += m.PickedUp
		agg.DroppedOff += m.DroppedOff
		if m.Batches > rounds {
			rounds = m.Batches
		}
	}
	agg.Batches = rounds
	agg.BatchSeconds = make([]float64, rounds)
	for _, m := range ms {
		for r, s := range m.BatchSeconds {
			agg.BatchSeconds[r] += s
		}
	}
	for i, m := range ms {
		for _, rec := range m.IdleRecords {
			rec.Driver = rt.global[i][rec.Driver]
			agg.IdleRecords = append(agg.IdleRecords, rec)
		}
		for _, rec := range m.TravelRecords {
			rec.Driver = rt.global[i][rec.Driver]
			agg.TravelRecords = append(agg.TravelRecords, rec)
		}
	}
	if rt.sized >= 0 {
		agg.TotalOrders = rt.sized
	}
	return agg
}

// tap is the per-shard observer, installed only when the session has a
// downstream observer: it forwards engine events to it with driver ids
// remapped to the global fleet numbering. It counts nothing, but first
// publishes its engine's tallies. Per-shard BatchStart events are
// absorbed — Run synthesizes the city-wide one.
type tap struct {
	rt    *Runtime
	shard ID
}

// enter publishes the shard's tallies and returns the city-wide observer.
func (t *tap) enter() sim.Observer {
	t.rt.tally(int(t.shard))
	return t.rt.downstream
}

func (t *tap) OnBatchStart(sim.BatchStartEvent) {}

func (t *tap) OnAssigned(e sim.AssignedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.enter().OnAssigned(e)
}

func (t *tap) OnExpired(e sim.ExpiredEvent) { t.enter().OnExpired(e) }

func (t *tap) OnCanceled(e sim.CanceledEvent) { t.enter().OnCanceled(e) }

func (t *tap) OnDeclined(e sim.DeclinedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.enter().OnDeclined(e)
}

func (t *tap) OnPickedUp(e sim.PickedUpEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.enter().OnPickedUp(e)
}

func (t *tap) OnDroppedOff(e sim.DroppedOffEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.enter().OnDroppedOff(e)
}

func (t *tap) OnRepositioned(e sim.RepositionedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.enter().OnRepositioned(e)
}

// feedSource is the runtime-owned per-shard order queue: Run pushes
// routed orders at the top of a round, the shard's engine drains them
// at its StepAdmit.
type feedSource struct {
	staged  []trace.Order
	cancels []trace.OrderID
	done    bool
}

func (f *feedSource) push(o trace.Order)          { f.staged = append(f.staged, o) }
func (f *feedSource) pushCancel(id trace.OrderID) { f.cancels = append(f.cancels, id) }
func (f *feedSource) markDone()                   { f.done = true }

// Poll implements sim.OrderSource: everything staged is already due
// (only orders the city-wide source released are routed).
// The backing array is recycled for the next round's pushes — sound
// because admitOrders copies each order into its Rider before the next
// route phase can overwrite the slice.
func (f *feedSource) Poll(float64) ([]trace.Order, bool) {
	ready := f.staged
	f.staged = f.staged[:0]
	return ready, f.done
}

// PollCancels implements sim.CancelableSource the same way: routed
// cancels are pushed at the top of a round and drained at StepAdmit.
func (f *feedSource) PollCancels() []trace.OrderID {
	ids := f.cancels
	f.cancels = f.cancels[:0]
	return ids
}
