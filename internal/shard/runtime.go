package shard

import (
	"context"
	"fmt"
	"time"

	"mrvd/internal/geo"
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
	// Weights optionally balances the partition by expected per-region
	// load instead of region count (see NewWeightedPartition) — use
	// OrderWeights over the trace, or a demand model's intensities.
	// Essential for hotspot-concentrated cities, where equal-area
	// stripes would give one shard most of the work.
	Weights []float64
}

// Stats is one shard's counters at the end of a run: the orders routed
// to it, its fleet after re-homing, the lifecycle tallies (copies of its
// engine's own Metrics, not a second count) and its dispatch wall time.
type Stats struct {
	Drivers int
	// Admitted counts orders routed to this shard. BorrowedIn is always
	// 0: orders go to the shard owning their pickup region. It leaves
	// with bench/'s peak_shard2 workload, which still reads it.
	Admitted   int
	BorrowedIn int
	// RehomedIn counts drivers migrated into this shard by fleet
	// re-homing (trips whose dropoff crossed a frontier).
	RehomedIn int
	Served    int
	Reneged   int
	// Canceled counts rider-initiated cancellations admitted by this
	// shard; Declined counts driver-declined assignments here.
	Canceled int
	Declined int
	// SharedServed counts pooled riders dropped off by this shard's
	// fleet; PickedUp/DroppedOff count pooled stop completions. All
	// three stay zero with pooling disabled.
	SharedServed int
	PickedUp     int
	DroppedOff   int
	Batches      int
	// AvgBatchMS is the mean wall time of this shard's StepDispatch per
	// round, ms.
	AvgBatchMS float64
}

// Runtime drives N sim.Engines over a partitioned city in lockstep
// batch rounds, all on the goroutine that calls Run. Build with New,
// execute once with Run, then read Stats.
type Runtime struct {
	cfg   Config
	part  *Partition
	src   sim.OrderSource
	sized int // total orders when src is sized, else -1

	engines []*sim.Engine
	feeds   []*feedSource
	// cancelSrc is the city-wide source's cancellation feed, nil when it
	// has none.
	cancelSrc sim.CancelableSource
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

	// stats holds the columns routing, re-homing and the dispatch
	// timing write; batchSumMS sums each shard's dispatch wall time.
	stats      []Stats
	batchSumMS []float64
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
		rt.stats[s].Drivers = len(shardStarts[s])
	}
	return rt, nil
}

// Run executes the lockstep batch loop on the calling goroutine: each
// round routes newly posted orders to their shards, steps every
// engine's admission phase (shard 0..N-1), re-homes the fleet,
// synthesizes one city-wide BatchStart, then steps every engine's
// dispatch phase (shard 0..N-1). newDispatcher builds shard i's
// dispatcher — one instance per shard, since dispatchers are stateful.
// The rounds tick on sim.RunBatches, the clock Engine.Run uses, so
// cancellation and pacing are the same code (a live source yields the
// processor in its Poll, once per round). Unlike Engine.Run it never
// parks: no live session runs here. A runtime is single-use.
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
		// Route this round's newly posted orders to the shards owning
		// their pickup regions.
		ready, done := rt.src.Poll(now)
		for _, o := range ready {
			s := rt.part.OwnerOf(o.Pickup)
			rt.feeds[s].push(o)
			if rt.routed != nil {
				rt.routed[o.ID] = s
			}
			rt.stats[s].Admitted++
		}
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

		if rt.cfg.Sim.StopWhenDrained && done && rt.allDrained() {
			return true, nil
		}
		if rt.downstream != nil {
			// One city-wide batch boundary per round, in the same
			// admission→renege→BatchStart→dispatch position a bare
			// engine fires it.
			waiting, available := 0, 0
			for _, e := range rt.engines {
				w, a := e.Counts()
				waiting, available = waiting+w, available+a
			}
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
			rt.batchSumMS[i] += time.Since(start).Seconds() * 1000 //mrvdlint:ignore wallclock per-shard round timing measures real dispatch time, not simulated time
			rt.stats[i].Batches++
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
			rt.stats[i].Drivers--
			rt.stats[mv.to].Drivers++
			rt.stats[mv.to].RehomedIn++
		}
	}
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

// Stats returns every shard's counters, with the lifecycle tallies read
// from its engine. Call it after Run returns.
func (rt *Runtime) Stats() []Stats {
	out := make([]Stats, len(rt.stats))
	copy(out, rt.stats)
	for i, e := range rt.engines {
		m, s := e.Tally(), &out[i]
		s.Served, s.Reneged, s.Canceled, s.Declined = m.Served, m.Reneged, m.Canceled, m.Declines
		s.SharedServed, s.PickedUp, s.DroppedOff = m.SharedServed, m.PickedUp, m.DroppedOff
		if s.Batches > 0 {
			s.AvgBatchMS = rt.batchSumMS[i] / float64(s.Batches)
		}
	}
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
// remapped to the global fleet numbering. Per-shard BatchStart events
// are absorbed — Run synthesizes the city-wide one.
type tap struct {
	rt    *Runtime
	shard ID
}

func (t *tap) OnBatchStart(sim.BatchStartEvent) {}

func (t *tap) OnAssigned(e sim.AssignedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.rt.downstream.OnAssigned(e)
}

func (t *tap) OnExpired(e sim.ExpiredEvent) { t.rt.downstream.OnExpired(e) }

func (t *tap) OnCanceled(e sim.CanceledEvent) { t.rt.downstream.OnCanceled(e) }

func (t *tap) OnDeclined(e sim.DeclinedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.rt.downstream.OnDeclined(e)
}

func (t *tap) OnPickedUp(e sim.PickedUpEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.rt.downstream.OnPickedUp(e)
}

func (t *tap) OnDroppedOff(e sim.DroppedOffEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.rt.downstream.OnDroppedOff(e)
}

func (t *tap) OnRepositioned(e sim.RepositionedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.rt.downstream.OnRepositioned(e)
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
