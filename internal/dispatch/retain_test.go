package dispatch

import (
	"context"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

// estimator is what IRG and LS are: a dispatcher the engine also asks
// for idle-time estimates.
type estimator interface {
	sim.Dispatcher
	sim.IdleEstimating
}

// retainer is the dispatcher the Context lifetime rule has to survive:
// it keeps the previous batch's *Context alive, and checks every
// estimate the wrapped dispatcher gives against an analyzer built from
// nothing for the batch at hand.
type retainer struct {
	estimator
	t       *testing.T
	model   *queueing.Model
	prev    *sim.Context
	batches int
	checked int
}

func (r *retainer) check(ctx *sim.Context, fresh *queueing.Analyzer, region geo.RegionID) float64 {
	got := r.estimator.EstimateIdle(ctx, region)
	if want := conditionalIdleEstimate(fresh, ctx, region); got != want {
		r.t.Fatalf("batch %d (t=%.0f) region %d: estimate %v, a fresh analyzer says %v — a stale batch's analyzer was served",
			r.batches, ctx.Now, region, got, want)
	}
	r.checked++
	return got
}

func (r *retainer) EstimateIdle(ctx *sim.Context, region geo.RegionID) float64 {
	return r.check(ctx, buildAnalyzer(r.model, ctx), region)
}

func (r *retainer) Assign(ctx *sim.Context) []sim.Assignment {
	if ctx == r.prev {
		r.t.Fatalf("batch %d reuses the previous batch's *Context: per-batch caches keyed on it go stale", r.batches)
	}
	fresh := buildAnalyzer(r.model, ctx)
	for k := 0; k < ctx.Grid.NumRegions(); k++ {
		r.check(ctx, fresh, geo.RegionID(k))
	}
	out := r.estimator.Assign(ctx)
	// After Assign committed destinations into the dispatcher's
	// analyzer, an estimate for the same batch must still be the
	// uncommitted snapshot's.
	if len(out) > 0 {
		r.check(ctx, fresh, ctx.Riders[out[0].R].DestRegion)
	}
	r.prev = ctx
	r.batches++
	return out
}

// TestRetainedContextNeverServesStaleAnalyzer runs IRG and LS through
// the real engine behind a dispatcher that retains each batch's
// *Context. The engine recycles every slice a Context carries; if it
// recycled the Context itself, the dispatchers' per-batch analyzer —
// keyed on the pointer — would answer batch k from batch k-1's state,
// and no parity test would notice because both sides would.
func TestRetainedContextNeverServesStaleAnalyzer(t *testing.T) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 28000, Seed: 31, BaseWaitSeconds: 120})
	rng := rand.New(rand.NewSource(3))
	orders := city.GenerateDay(0, rng)
	starts := city.InitialDrivers(100, orders, rng)
	exp := city.ExpectedDayCounts(0, 1200)
	for _, mk := range []func(m *queueing.Model) estimator{
		func(m *queueing.Model) estimator { return &IRG{Model: m} },
		func(m *queueing.Model) estimator { return &LS{Model: m} },
	} {
		model := queueing.NewDefault()
		r := &retainer{estimator: mk(model), t: t, model: model}
		cfg := sim.Config{
			Grid: city.Grid(), Delta: 10, TC: 1200, Horizon: 4 * 3600,
			PredictRiders: func(now, tc float64, k geo.RegionID) int {
				return int(exp[int(now/1200)][k] + 0.5)
			},
		}
		m, err := sim.New(cfg, orders, starts).Run(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if m.Served == 0 || r.checked <= r.batches*city.Grid().NumRegions() {
			t.Fatalf("%s: served %d, %d estimates checked over %d batches: the run exercised nothing",
				r.Name(), m.Served, r.checked, r.batches)
		}
	}
}
