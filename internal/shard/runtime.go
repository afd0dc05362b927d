package shard

import (
	"context"
	"fmt"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// Config parameterizes a partitioned runtime.
type Config struct {
	// Sim is the per-engine template: grid, coster, batch timing,
	// horizon, candidate cap, prediction callback, observer and pacing
	// all mean what they mean for one sim.Engine, and every shard's
	// engine shares them. The Observer receives the aggregated city-wide
	// stream (driver ids are global fleet ids). New refuses the engine
	// layers the harness does not serve: Scenario, Pooling, Repositioner
	// and Obs.
	Sim sim.Config
	// Shards is the engine count (required, >= 1).
	Shards int
	// Weights balances the partition by expected per-region load
	// (required, see NewWeightedPartition): use OrderWeights over the
	// trace. Equal-area stripes would give one shard of a
	// hotspot-concentrated city most of the work.
	Weights []float64
}

// Stats is one shard's counters at the end of a run: what re-homing
// moved into it and its dispatch wall time.
type Stats struct {
	// BorrowedIn is always 0: orders go to the shard owning their pickup
	// region. It leaves with bench/'s peak_shard2 workload, which still
	// reads it.
	BorrowedIn int
	// RehomedIn counts drivers migrated into this shard by fleet
	// re-homing (trips whose dropoff crossed a frontier).
	RehomedIn int
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
	// global[i][local] is the fleet-wide driver id of shard i's local
	// driver index — the remap the event aggregator applies.
	global [][]sim.DriverID

	// downstream is the city-wide observer (nil: engines construct no
	// events).
	downstream sim.Observer

	// rehomedIn counts each shard's re-homed arrivals; batchSumMS sums
	// each shard's dispatch wall time over the run's rounds.
	rehomedIn  []int
	batchSumMS []float64
	rounds     int
}

// New partitions the grid, splits the fleet by start region, and builds
// one engine per shard. src supplies the city-wide order stream — a
// replay such as a SliceSource; a cancelable source is refused — and is
// polled only from the goroutine that calls Run.
func New(cfg Config, src sim.OrderSource, starts []geo.Point) (*Runtime, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: nil order source")
	}
	if _, ok := src.(sim.CancelableSource); ok {
		return nil, fmt.Errorf("shard: cancelable order source %T is not served", src)
	}
	switch {
	case cfg.Sim.Scenario.Enabled():
		return nil, fmt.Errorf("shard: Scenario is not served")
	case cfg.Sim.Pooling.Enabled():
		return nil, fmt.Errorf("shard: Pooling is not served")
	case cfg.Sim.Repositioner != nil:
		return nil, fmt.Errorf("shard: Repositioner is not served")
	case cfg.Sim.Obs.Enabled():
		return nil, fmt.Errorf("shard: Obs is not served")
	}
	cfg.Sim = cfg.Sim.WithDefaults()
	part, err := NewWeightedPartition(cfg.Sim.Grid, cfg.Shards, cfg.Weights)
	if err != nil {
		return nil, err
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
		rehomedIn:  make([]int, cfg.Shards),
		batchSumMS: make([]float64, cfg.Shards),
	}
	if sized, ok := src.(sim.SizedSource); ok {
		rt.sized = sized.TotalOrders()
	}

	// Deal the fleet: a driver belongs to the shard owning its start
	// region, keeping its global index for event remapping.
	shardStarts := make([][]geo.Point, cfg.Shards)
	for i, p := range starts {
		s := part.OwnerOf(p)
		rt.global[s] = append(rt.global[s], sim.DriverID(i))
		shardStarts[s] = append(shardStarts[s], p)
	}

	for s := 0; s < cfg.Shards; s++ {
		ecfg := cfg.Sim
		if rt.downstream != nil {
			ecfg.Observer = &tap{rt: rt, shard: ID(s)}
		}
		ecfg.PaceFactor = 0          // Run paces the rounds
		ecfg.StopWhenDrained = false // Run decides drain city-wide
		rt.feeds[s] = &feedSource{}
		rt.engines[s] = sim.NewWithSource(ecfg, rt.feeds[s], shardStarts[s])
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
// cancellation and pacing are the same code. Unlike Engine.Run it never
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

	err := sim.RunBatches(ctx, rt.cfg.Sim, func(now float64) (bool, error) {
		// Route this round's newly posted orders to the shards owning
		// their pickup regions.
		ready, done := rt.src.Poll(now)
		for _, o := range ready {
			rt.feeds[rt.part.OwnerOf(o.Pickup)].push(o)
		}
		if done {
			for _, f := range rt.feeds {
				f.markDone()
			}
		}

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
				Batch:     rt.rounds,
				Waiting:   waiting,
				Available: available,
			})
		}

		for i, e := range rt.engines {
			start := time.Now() //mrvdlint:ignore wallclock per-shard round timing measures real dispatch time, not simulated time
			err := e.StepDispatch(now, dispatchers[i])
			rt.batchSumMS[i] += time.Since(start).Seconds() * 1000 //mrvdlint:ignore wallclock per-shard round timing measures real dispatch time, not simulated time
			if err != nil {
				return false, err
			}
		}
		rt.rounds++
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
			pos, freeAt, ok := e.RemoveDriver(mv.id)
			if !ok {
				continue
			}
			rt.engines[mv.to].AddDriver(pos, freeAt)
			// The new local id is always the next slot, so the global
			// mapping grows in lockstep with the receiving engine.
			rt.global[mv.to] = append(rt.global[mv.to], rt.global[i][mv.id])
			rt.rehomedIn[mv.to]++
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

// Stats returns every shard's counters. Call it after Run returns.
func (rt *Runtime) Stats() []Stats {
	out := make([]Stats, len(rt.engines))
	for i := range out {
		out[i].RehomedIn = rt.rehomedIn[i]
		if rt.rounds > 0 {
			out[i].AvgBatchMS = rt.batchSumMS[i] / float64(rt.rounds)
		}
	}
	return out
}

// aggregate merges per-shard metrics into one city-wide Metrics whose
// deterministic projection (Summary) matches what a single engine over
// the union would report. DispatchPhase merges the shards' histograms,
// so its count is shard-batches and its mean and quantiles are per
// shard-batch, not per round. IdleRecords concatenate shard-major with
// driver ids remapped to the global fleet numbering. The counters New's
// refusals keep at zero (cancels, declines, pooling, travel noise) are
// not summed.
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
		agg.TotalOrders += m.TotalOrders
		agg.PickupSeconds += m.PickupSeconds
		agg.DispatchPhase.Merge(m.DispatchPhase)
		if m.Batches > rounds {
			rounds = m.Batches
		}
	}
	agg.Batches = rounds
	for i, m := range ms {
		for _, rec := range m.IdleRecords {
			rec.Driver = rt.global[i][rec.Driver]
			agg.IdleRecords = append(agg.IdleRecords, rec)
		}
	}
	if rt.sized >= 0 {
		agg.TotalOrders = rt.sized
	}
	return agg
}

// tap is the per-shard observer, installed only when the session has a
// downstream observer: it forwards the events a plain run fires to it,
// driver ids remapped to the global fleet numbering. Per-shard
// BatchStart events are absorbed — Run synthesizes the city-wide one —
// and the embedded ObserverFuncs drops the events New's refusals keep
// from firing.
type tap struct {
	sim.ObserverFuncs
	rt    *Runtime
	shard ID
}

func (t *tap) OnBatchStart(sim.BatchStartEvent) {}

func (t *tap) OnAssigned(e sim.AssignedEvent) {
	e.Driver = t.rt.global[t.shard][e.Driver]
	t.rt.downstream.OnAssigned(e)
}

func (t *tap) OnExpired(e sim.ExpiredEvent) { t.rt.downstream.OnExpired(e) }

// feedSource is the runtime-owned per-shard order queue: Run pushes
// routed orders at the top of a round, the shard's engine drains them
// at its StepAdmit.
type feedSource struct {
	staged []trace.Order
	done   bool
}

func (f *feedSource) push(o trace.Order) { f.staged = append(f.staged, o) }
func (f *feedSource) markDone()          { f.done = true }

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
