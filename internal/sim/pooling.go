package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mrvd/internal/geo"
	"mrvd/internal/heapq"
	"mrvd/internal/pool"
	"mrvd/internal/trace"
)

// poolState is the engine's per-run pooling machinery, nil when
// Config.Pooling is disabled so the single-trip hot path pays nothing.
//
// The structural invariant everything here leans on: a pooled busy
// driver has exactly one completion-heap entry, and it is the plan's
// front-stop arrival time. Insertions land at plan index >= 1 and a
// front-pickup cancel keeps the stop as an inert via-point, so the
// front stop's ETA never changes after commit and heap entries never go
// stale — no sequence numbers, no re-heapify.
type poolState struct {
	cfg pool.Config
	// plans maps busy pooled drivers to their active route plans.
	// Drivers busy for other reasons (decline cooldown, reposition
	// cruise) have no plan and rejoin through the legacy path.
	plans map[DriverID]*pool.Plan
	// riders tracks assigned riders still on a plan, with the amounts
	// their commit added to the metrics — the rollback data a
	// pre-pickup cancellation needs.
	riders map[trace.OrderID]*pooledRider
	// noInsertUntil holds per-driver insertion cooldowns from declined
	// insertions.
	noInsertUntil map[DriverID]float64
	// cost is the batch-scoped memoized leg pricer, rebuilt by
	// buildPoolOptions and reused by the same batch's commits so
	// insertion evaluation and splicing see bitwise-identical values.
	cost pool.CostFn
}

type pooledRider struct {
	r       *Rider
	revenue float64
	pickup  float64
}

func newPoolState(cfg pool.Config) *poolState {
	return &poolState{
		cfg:           cfg,
		plans:         make(map[DriverID]*pool.Plan),
		riders:        make(map[trace.OrderID]*pooledRider),
		noInsertUntil: make(map[DriverID]float64),
	}
}

// legKey keys the batch's memoized leg costs.
type legKey struct{ a, b geo.Point }

// startPlan converts a committed solo assignment into a two-stop route
// plan and schedules its front stop (the pickup) on the completion
// heap. All externally visible accounting matches the single-trip
// commit exactly; only the completion bookkeeping differs.
func (e *Engine) startPlan(r *Rider, id DriverID, pickupAt, dropAt, revenue, pickup float64) {
	e.ps.plans[id] = &pool.Plan{Stops: []pool.Stop{
		{Kind: pool.PickupStop, Order: r.Order.ID, Pos: r.Order.Pickup, ETA: pickupAt, Deadline: r.Order.Deadline},
		{Kind: pool.DropoffStop, Order: r.Order.ID, Pos: r.Order.Dropoff, ETA: dropAt, Direct: r.TripCost},
	}}
	e.ps.riders[r.Order.ID] = &pooledRider{r: r, revenue: revenue, pickup: pickup}
	heapq.Push(&e.busy, completion{freeAt: pickupAt, driver: id}, completionLess)
}

// advancePlan consumes every due stop of a pooled driver's plan, firing
// pickup/dropoff events, then either schedules the next front stop or
// rejoins the driver exactly like a completed single trip.
func (e *Engine) advancePlan(now float64, id DriverID, p *pool.Plan) {
	freeAt := now
	for len(p.Stops) > 0 && p.Stops[0].ETA <= now {
		st := p.Stops[0]
		p.Stops = p.Stops[1:]
		freeAt = st.ETA
		switch {
		case st.Kind == pool.PickupStop && st.Canceled:
			// Inert via-point of a canceled rider: nobody to pick up.
		case st.Kind == pool.PickupStop:
			p.Onboard++
			for k := range p.Stops {
				if p.Stops[k].Kind == pool.DropoffStop && p.Stops[k].Order == st.Order {
					p.Stops[k].PickedAt = st.ETA
					break
				}
			}
			if pr, ok := e.ps.riders[st.Order]; ok {
				pr.r.PickedAt = st.ETA
			}
			e.metrics.PickedUp++
			if e.observer != nil {
				e.observer.OnPickedUp(PickedUpEvent{
					Now: now, At: st.ETA, Order: st.Order, Driver: id,
					Onboard: p.Onboard, Remaining: len(p.Stops),
				})
			}
		case st.Kind == pool.DropoffStop:
			p.Onboard--
			shared := false
			detour := st.ETA - st.PickedAt - st.Direct
			if pr, ok := e.ps.riders[st.Order]; ok {
				shared = pr.r.Shared
				delete(e.ps.riders, st.Order)
			}
			if shared {
				e.metrics.SharedServed++
				e.metrics.DetourSeconds += detour
			}
			e.metrics.DroppedOff++
			if e.observer != nil {
				e.observer.OnDroppedOff(DroppedOffEvent{
					Now: now, At: st.ETA, Order: st.Order, Driver: id,
					Shared: shared, DetourSeconds: detour,
					Onboard: p.Onboard, Remaining: len(p.Stops),
				})
			}
		}
	}
	if len(p.Stops) > 0 {
		heapq.Push(&e.busy, completion{freeAt: p.Stops[0].ETA, driver: id}, completionLess)
		return
	}
	delete(e.ps.plans, id)
	e.rejoin(id, freeAt)
}

// cancelPooled applies an explicit cancellation of a rider still on a
// route plan (a completed trip has left ps.riders, so its cancel never
// gets here). Only the rider's own stops leave the plan; a rider
// already onboard (pickup consumed) is past the point of no return and
// the request is dropped. The assignment's accounting is rolled back so
// the run's totals reflect only trips actually served.
func (e *Engine) cancelPooled(now float64, pr *pooledRider) {
	r := pr.r
	p, ok := e.ps.plans[r.Driver]
	if !ok {
		return
	}
	d := &e.drivers[r.Driver]
	oldEnd := d.FreeAt
	oldRegion := e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(d.Pos))
	if !p.Cancel(r.Order.ID, e.cfg.Coster.Cost) {
		return // onboard: cancellation rejected
	}
	delete(e.ps.riders, r.Order.ID)

	// Roll back the commit's accounting and refresh the driver's
	// completion bookkeeping — the plan just got shorter. The front
	// stop survives every cancel, so the heap entry stays valid.
	e.metrics.Served--
	e.metrics.Revenue -= pr.revenue
	e.metrics.PickupSeconds -= pr.pickup
	d.Served--
	pos, end := p.End()
	d.Pos = pos
	d.FreeAt = end
	e.fc.dropRejoin(oldRegion, oldEnd)
	e.fc.addRejoin(e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(pos)), end)

	e.cancelRider(now, r, true)
}

// applyPooled validates and commits one shared-ride insertion.
func (e *Engine) applyPooled(now float64, ctx *Context, a Assignment, usedPool map[DriverID]bool) (bool, error) {
	if e.ps == nil {
		return false, fmt.Errorf("sim: pooled assignment without pooling enabled")
	}
	if a.Option < 0 || int(a.Option) >= len(ctx.PoolOptions) {
		return false, fmt.Errorf("sim: pool option %d out of range", a.Option)
	}
	opt := ctx.PoolOptions[a.Option]
	if opt.R != a.R {
		return false, fmt.Errorf("sim: pooled assignment rider %d does not match option rider %d", a.R, opt.R)
	}
	if e.arena.usedR[a.R] == e.arena.stamp {
		return false, fmt.Errorf("sim: rider %d assigned twice", a.R)
	}
	if usedPool[opt.Driver] {
		// The option's ETAs were priced against the plan as it stood at
		// batch start; a second splice into the same plan would commit
		// stale times.
		return false, fmt.Errorf("sim: driver %d's plan spliced twice in one batch", opt.Driver)
	}
	e.arena.usedR[a.R] = e.arena.stamp
	usedPool[opt.Driver] = true
	rider := ctx.Riders[a.R]
	if rider.Status != WaitingStatus {
		return false, fmt.Errorf("sim: rider %d not waiting", rider.Order.ID)
	}
	p, ok := e.ps.plans[opt.Driver]
	if !ok {
		return false, fmt.Errorf("sim: driver %d has no active plan", opt.Driver)
	}

	// Driver decline releases the whole insertion: the plan stays as
	// committed, the rider keeps waiting (deadline unchanged), and the
	// driver refuses further insertions until the cooldown passes —
	// their active plan keeps executing, so unlike a solo decline no
	// completion bookkeeping moves.
	if e.scen != nil && e.scen.declines() {
		retryAt := now + e.scen.cooldown()
		e.ps.noInsertUntil[opt.Driver] = retryAt
		e.metrics.Declines++
		if e.observer != nil {
			e.observer.OnDeclined(DeclinedEvent{Now: now, Rider: rider, Driver: opt.Driver, RetryAt: retryAt})
		}
		return false, nil
	}

	trip := ctx.TripCost(a.R)
	req := pool.Request{
		Order:    rider.Order.ID,
		Pickup:   rider.Order.Pickup,
		Dropoff:  rider.Order.Dropoff,
		Trip:     trip,
		Deadline: rider.Order.Deadline,
	}
	leg := func(v float64) float64 { return v }
	noisy := e.scen != nil && e.scen.cfg.TravelNoise > 0
	if noisy {
		leg = e.scen.perturb
	}
	pickupAt, dropAt := p.Insert(req, opt.Ins, e.ps.cost, leg)
	if noisy {
		e.metrics.TravelRecords = append(e.metrics.TravelRecords, TravelRecord{
			Order:          rider.Order.ID,
			Driver:         opt.Driver,
			At:             now,
			PickupEstimate: opt.Ins.PickupETA - now,
			PickupRealized: pickupAt - now,
			TripEstimate:   opt.Ins.DropETA - opt.Ins.PickupETA,
			TripRealized:   dropAt - pickupAt,
		})
	}

	rider.Status = AssignedStatus
	rider.Driver = opt.Driver
	rider.Shared = true
	rider.PickedAt = pickupAt
	wait := pickupAt - now

	// The splice moved the plan's completion; the front stop (and with
	// it the heap entry) is untouched by construction.
	d := &e.drivers[opt.Driver]
	e.fc.dropRejoin(e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(d.Pos)), d.FreeAt)
	pos, end := p.End()
	d.Pos = pos
	d.FreeAt = end
	d.Served++
	e.fc.addRejoin(e.cfg.Grid.Region(e.cfg.Grid.Bounds().Clamp(pos)), end)

	e.ps.riders[rider.Order.ID] = &pooledRider{r: rider, revenue: trip, pickup: wait}
	e.metrics.Revenue += trip
	e.metrics.PickupSeconds += wait
	e.metrics.Served++

	if e.observer != nil {
		e.observer.OnAssigned(AssignedEvent{
			Now:           now,
			Rider:         rider,
			Driver:        opt.Driver,
			PickupCost:    wait,
			Revenue:       trip,
			FreeAt:        dropAt,
			Shared:        true,
			DetourSeconds: dropAt - pickupAt - trip,
			Onboard:       p.Onboard,
			Stops:         len(p.Stops),
			Dest:          pos,
			DriverFreeAt:  end,
		})
	}
	return true, nil
}

// buildPoolOptions prices the batch's feasible shared-ride insertions
// among poolCandidates' (plan, rider) candidates: the leg costs they
// need are priced through the batch coster's many-to-many matrices (two
// dense calls: plan stops to rider points and back), and pool.Best then
// runs entirely against the memoized matrix values — insertion
// evaluation stays batched, not per-pair.
func (e *Engine) buildPoolOptions(ctx *Context, plans []poolPlan, cands [][]int) {
	ps := e.ps
	ctx.PoolCapacity = ps.cfg.Capacity
	memo := make(map[legKey]float64)
	cost := func(a, b geo.Point) float64 {
		k := legKey{a, b}
		if v, ok := memo[k]; ok {
			return v
		}
		v := e.cfg.Coster.Cost(a, b)
		memo[k] = v
		return v
	}
	ps.cost = cost
	if cands == nil {
		return
	}

	// Price the candidate legs through the batch coster. The two dense
	// calls cover every stop<->rider-point leg an insertion evaluation
	// can touch; pool.Best and the commit's Insert then hit the memo
	// only. Lazy costers skip the prefill and price per cell on demand
	// — values are bitwise-identical either way (the BatchCoster
	// contract).
	if e.dense != nil {
		planUsed := make([]bool, len(plans))
		var stopPts, riderPts []geo.Point
		stopSeen := make(map[geo.Point]bool)
		riderSeen := make(map[geo.Point]bool)
		for wi, list := range cands {
			if len(list) == 0 {
				continue
			}
			r := e.waiting[wi]
			for _, pt := range [2]geo.Point{r.Order.Pickup, r.Order.Dropoff} {
				if !riderSeen[pt] {
					riderSeen[pt] = true
					riderPts = append(riderPts, pt)
				}
			}
			for _, pi := range list {
				planUsed[pi] = true
			}
		}
		for pi, c := range plans {
			if !planUsed[pi] {
				continue
			}
			for _, s := range c.p.Stops {
				if !stopSeen[s.Pos] {
					stopSeen[s.Pos] = true
					stopPts = append(stopPts, s.Pos)
				}
			}
		}
		if len(stopPts) > 0 && len(riderPts) > 0 {
			fromStops := e.dense.Costs(stopPts, riderPts)
			fromRiders := e.dense.Costs(riderPts, stopPts)
			for i, sp := range stopPts {
				for j, rp := range riderPts {
					memo[legKey{sp, rp}] = fromStops[i][j]
					memo[legKey{rp, sp}] = fromRiders[j][i]
				}
			}
		}
	}

	maxDetour := ps.cfg.Detour()
	evaluated, feasible := 0, 0
	for wi, list := range cands {
		if len(list) == 0 {
			continue
		}
		r := e.waiting[wi]
		req := pool.Request{
			Order:    r.Order.ID,
			Pickup:   r.Order.Pickup,
			Dropoff:  r.Order.Dropoff,
			Trip:     r.TripCost,
			Deadline: r.Order.Deadline,
		}
		found := 0
		for _, pi := range list {
			if found >= maxCandidatesPerRider {
				break
			}
			evaluated++
			ins, ok := pool.Best(plans[pi].p, req, ps.cfg.Capacity, maxDetour, cost)
			if !ok {
				continue
			}
			feasible++
			ctx.PoolOptions = append(ctx.PoolOptions, PoolOption{R: int32(wi), Driver: plans[pi].id, Ins: ins})
			found++
		}
	}
	e.obs.poolSearch(evaluated, feasible)
}

// poolPlan is an active route plan open to insertion this batch.
type poolPlan struct {
	id DriverID
	p  *pool.Plan
}

// poolCandidates lists the batch's insertable plans and, per waiting
// rider, the plans a geometric prefilter keeps (nil when none), and
// queues the trips of those riders the pair loop did not for pricing.
func (e *Engine) poolCandidates(now float64) (plans []poolPlan, cands [][]int) {
	ps := e.ps
	if len(e.waiting) == 0 || len(ps.plans) == 0 {
		return nil, nil
	}

	// Insertable plans in driver-id order for determinism. A plan at
	// 2*Capacity stops is chain-saturated and skipped, as is a driver
	// still cooling down from a declined insertion.
	for id := range e.drivers {
		p, ok := ps.plans[DriverID(id)]
		if !ok || len(p.Stops) >= 2*ps.cfg.Capacity {
			continue
		}
		if until, ok := ps.noInsertUntil[DriverID(id)]; ok {
			if until > now {
				continue
			}
			delete(ps.noInsertUntil, DriverID(id))
		}
		plans = append(plans, poolPlan{DriverID(id), p})
	}
	if len(plans) == 0 {
		return nil, nil
	}

	// Geometric prefilter: an insertion can only reach the new pickup
	// from some existing stop before the rider's deadline, and
	// radiusSpeedMPS upper-bounds travel speed — the same reachability
	// argument the solo candidate radius uses.
	cands = make([][]int, len(e.waiting))
	any := false
	for wi, r := range e.waiting {
		deadline := r.Order.Deadline
		for pi, c := range plans {
			near := false
			for _, s := range c.p.Stops {
				slack := deadline - s.ETA
				if slack < 0 {
					break // stops are time-ordered; later ones are worse
				}
				if geo.Equirect(s.Pos, r.Order.Pickup) <= slack*radiusSpeedMPS {
					near = true
					break
				}
			}
			if near {
				cands[wi] = append(cands[wi], pi)
				any = true
			}
		}
		if len(cands[wi]) > 0 && math.IsNaN(r.TripCost) {
			// a.pairs is sorted by rider: one with a pair is queued.
			a := &e.arena
			if _, paired := slices.BinarySearchFunc(a.pairs, int32(wi), func(p Pair, r int32) int { return cmp.Compare(p.R, r) }); !paired {
				a.unpriced = append(a.unpriced, r)
			}
		}
	}
	if !any {
		return nil, nil
	}
	return plans, cands
}
