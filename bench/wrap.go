package main

import (
	"fmt"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// batchClock is the only instrument a measured (untraced) run carries:
// one clock read per OnBatchStart. Gaps between consecutive reads are
// the batch timings every workload reports.
type batchClock struct {
	sim.ObserverFuncs // the other events are not observed
	epoch             time.Time
	at                []int64 // ns since epoch, one per batch
	waiting           []int32 // BatchStartEvent.Waiting, parallel to at
}

func newBatchClock(capacity int) *batchClock {
	return &batchClock{epoch: time.Now(), at: make([]int64, 0, capacity), waiting: make([]int32, 0, capacity)}
}

// OnBatchStart implements sim.Observer.
func (c *batchClock) OnBatchStart(e sim.BatchStartEvent) {
	c.at = append(c.at, int64(time.Since(c.epoch)))
	c.waiting = append(c.waiting, int32(e.Waiting))
}

func (c *batchClock) reset() { c.at, c.waiting = c.at[:0], c.waiting[:0] }

// gapsMS returns the wall gaps, in ms, between consecutive batch starts
// whose later batch satisfies keep.
func (c *batchClock) gapsMS(keep func(waiting int32) bool) []float64 {
	var out []float64
	for i := 1; i < len(c.at); i++ {
		if keep(c.waiting[i]) {
			out = append(out, float64(c.at[i]-c.at[i-1])/1e6)
		}
	}
	return out
}

// traceProbe is the traced run's view of the engine from outside. The
// wrappers below call into it as the engine crosses each public
// interface; it cuts one trace per batch out of those crossings,
// counts what flows across them and checks the run's invariants.
//
// Under the shard runtime Poll and OnBatchStart arrive on the
// coordinator and Assign on the shard workers; the runtime's barriers
// order them, so the coordinator-side fields need no lock.
type traceProbe struct {
	tr      *tracer
	sharded bool
	stride  int64 // trace ids per replay: batches + 1
	replay  int64
	batch   int64

	root, phase int32 // open batch root and its admission span; 0 when none
	tBS         int64 // OnBatchStart of the open batch
	wavesLeft   int   // admission-wave Costs calls still expected
	denseWaves  bool  // the coster prices admission waves through Costs

	lanes []*dispatchLane // one per dispatcher (one per shard)

	// Per-replay accumulators, reset by begin.
	riders, drivers []float64 // per batch, from OnBatchStart
	criticalNS      int64     // sum over batches of max over lanes (Assign exit - OnBatchStart)
	tailNS          int64     // sum over batches of (next Poll - last Assign exit)

	freeAt     []float64 // per fleet driver: end of its current commitment
	violations []string
}

// dispatchLane is one dispatcher's share of the probe; only that
// dispatcher's goroutine writes it between barriers.
type dispatchLane struct {
	assignExit  int64     // Assign exit of the open batch, 0 before it
	pairs       []float64 // candidate pairs per batch
	assignments int64
	pairTotal   int64
}

func newTraceProbe(tr *tracer, fleet int, sharded, denseWaves bool) *traceProbe {
	return &traceProbe{tr: tr, sharded: sharded, denseWaves: denseWaves, freeAt: make([]float64, fleet)}
}

// begin arms the probe for one replay.
func (p *traceProbe) begin(replay int64, stride int64) {
	p.replay, p.stride, p.batch = replay, stride, 0
	p.root, p.phase, p.wavesLeft = 0, 0, 0
	p.riders, p.drivers = p.riders[:0], p.drivers[:0]
	p.criticalNS, p.tailNS = 0, 0
	for i := range p.freeAt {
		p.freeAt[i] = 0
	}
	p.lanes = p.lanes[:0] // each replay wraps fresh dispatchers
}

// poll marks a batch boundary: it closes the open batch at t and opens
// the next one, whose Poll returned admitted orders.
func (p *traceProbe) poll(t int64, admitted int) {
	p.closeBatch(t)
	kind := spanAdmitBuild
	if p.sharded {
		kind = spanAdmit
	}
	trace := p.replay*p.stride + p.batch
	p.root = p.tr.add(spanBatch, 0, trace, t, t)
	p.phase = p.tr.add(kind, p.root, trace, t, t)
	p.tBS = 0
	if p.denseWaves {
		p.wavesLeft = (admitted + 255) / 256 // admitOrders prices trips in chunks of 256
	}
}

// closeBatch ends the open batch at t (the next Poll, or the end of the
// run).
func (p *traceProbe) closeBatch(t int64) {
	if p.root == 0 {
		return
	}
	trace := p.replay*p.stride + p.batch
	if p.tBS == 0 {
		// The run ended between admission and dispatch (drained).
		p.tr.setEnd(p.phase, t)
	}
	kind := spanApply
	if p.sharded {
		kind = spanApplyBarrier
	}
	last := int64(0)
	for _, l := range p.lanes {
		if l.assignExit == 0 {
			continue
		}
		p.tr.add(kind, p.root, trace, l.assignExit, t)
		last = max(last, l.assignExit)
		l.assignExit = 0
	}
	if last != 0 {
		p.criticalNS += last - p.tBS
		p.tailNS += t - last
	}
	p.tr.setEnd(p.root, t)
	p.root = 0
	p.batch++
}

// OnBatchStart and the other events make the probe a sim.Observer.
func (p *traceProbe) OnBatchStart(e sim.BatchStartEvent) {
	p.tBS = p.tr.now()
	p.tr.setEnd(p.phase, p.tBS)
	p.riders = append(p.riders, float64(e.Waiting))
	p.drivers = append(p.drivers, float64(e.Available))
}

// OnAssigned checks the two per-assignment invariants: the pickup
// meets the deadline, and the driver's previous commitment is over.
func (p *traceProbe) OnAssigned(e sim.AssignedEvent) {
	if e.Rider.PickedAt > e.Rider.Order.Deadline {
		p.violate("order %d picked up at %.1f after its deadline %.1f", e.Rider.Order.ID, e.Rider.PickedAt, e.Rider.Order.Deadline)
	}
	if d := int(e.Driver); d < len(p.freeAt) {
		if e.Now < p.freeAt[d] {
			p.violate("driver %d assigned at %.1f before free at %.1f", d, e.Now, p.freeAt[d])
		}
		p.freeAt[d] = e.DriverFreeAt
	} else {
		p.violate("driver id %d outside the fleet of %d", d, len(p.freeAt))
	}
}

func (p *traceProbe) OnExpired(sim.ExpiredEvent)           {}
func (p *traceProbe) OnCanceled(sim.CanceledEvent)         {}
func (p *traceProbe) OnDeclined(sim.DeclinedEvent)         {}
func (p *traceProbe) OnRepositioned(sim.RepositionedEvent) {}
func (p *traceProbe) OnPickedUp(sim.PickedUpEvent)         {}
func (p *traceProbe) OnDroppedOff(sim.DroppedOffEvent)     {}

func (p *traceProbe) violate(format string, args ...any) {
	if len(p.violations) < 10 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

// tracedSource wraps the replayed trace: its Poll is the batch
// boundary. It forwards TotalOrders so the engine still sizes the run
// upfront, and deliberately has no PollCancels — no benchmark source is
// cancelable, and growing that method would switch the engine onto its
// cancel-tracking path.
type tracedSource struct {
	sim.SizedSource
	p *traceProbe
}

func (s tracedSource) Poll(now float64) ([]trace.Order, bool) {
	t := s.p.tr.now()
	ready, done := s.SizedSource.Poll(now)
	s.p.poll(t, len(ready))
	return ready, done
}

// idleDispatcher is what the paper's two algorithms are: a dispatcher
// that also reports idle-time estimates.
type idleDispatcher interface {
	sim.Dispatcher
	sim.IdleEstimating
}

// tracedDispatcher times Assign from outside and counts candidate
// pairs against returned assignments. EstimateIdle is forwarded (by
// embedding) so the idle ledger — and with it the Summary — is the one
// an unwrapped run produces.
type tracedDispatcher struct {
	idleDispatcher
	p    *traceProbe
	lane *dispatchLane
}

// wrapDispatcher adds a lane for d to the probe.
func (p *traceProbe) wrapDispatcher(d sim.Dispatcher) (sim.Dispatcher, error) {
	inner, ok := d.(idleDispatcher)
	if !ok {
		return nil, fmt.Errorf("bench: dispatcher %s does not estimate idle time", d.Name())
	}
	lane := &dispatchLane{}
	p.lanes = append(p.lanes, lane)
	return tracedDispatcher{idleDispatcher: inner, p: p, lane: lane}, nil
}

func (d tracedDispatcher) Assign(ctx *sim.Context) []sim.Assignment {
	p := d.p
	trace := p.replay*p.stride + p.batch
	t0 := p.tr.now()
	kind := spanEstimate
	if p.sharded {
		kind = spanBuildEstimate
	}
	p.tr.add(kind, p.root, trace, p.tBS, t0)
	out := d.idleDispatcher.Assign(ctx)
	t1 := p.tr.now()
	p.tr.add(spanAssign, p.root, trace, t0, t1)
	d.lane.assignExit = t1
	d.lane.pairs = append(d.lane.pairs, float64(len(ctx.Pairs)))
	d.lane.pairTotal += int64(len(ctx.Pairs))
	d.lane.assignments += int64(len(out))
	return out
}

// tracedCoster times the two uses the engine makes of a batch coster —
// the admission wave and the build matrix — and forwards everything
// else (Cost, AmortizesPerSource, Stats) by embedding, so the engine
// keeps its dense pricing policy and the cache counters stay readable.
type tracedCoster struct {
	*roadnet.GraphCoster
	p     *traceProbe
	calls int64 // Costs is only ever called from the engine goroutine
}

func (c *tracedCoster) Costs(sources, targets []geo.Point) [][]float64 {
	p := c.p
	t0 := p.tr.now()
	out := c.GraphCoster.Costs(sources, targets)
	t1 := p.tr.now()
	kind, parent := spanMatrix, p.phase
	if p.wavesLeft > 0 {
		p.wavesLeft--
		kind = spanWave
	}
	if p.tBS != 0 {
		parent = p.root // priced after the context was built
	}
	p.tr.add(kind, parent, p.replay*p.stride+p.batch, t0, t1)
	c.calls++
	return out
}

// timedPredictor wraps the demand predictor. It is installed in
// measured runs too (the runner caches trained predictors by name, so
// a traced run could not swap it in later); there it only counts.
type timedPredictor struct {
	predict.Predictor
	timed bool
	calls int64
	ns    int64
}

func (m *timedPredictor) Predict(h *predict.History, day, slot, region int) float64 {
	m.calls++
	if !m.timed {
		return m.Predictor.Predict(h, day, slot, region)
	}
	t0 := time.Now()
	v := m.Predictor.Predict(h, day, slot, region)
	m.ns += int64(time.Since(t0))
	return v
}
