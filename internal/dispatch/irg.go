package dispatch

import (
	"cmp"
	"math"
	"slices"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/sim"
)

// IRG is the idle-ratio oriented greedy approach of Algorithm 2: in each
// batch it selects valid rider-and-driver pairs in ascending order of
// the idle ratio IR(r, d) = ET/(cost + ET) (Eq. 17), raising the
// destination region's driver arrival rate after each commitment.
type IRG struct {
	// Model is the queueing model; nil defaults to queueing.NewDefault().
	Model *queueing.Model
	// DisableMuUpdate turns off the line-11 feedback (ablation: the
	// ablation-muupdate preset). Scores are then fixed at batch start.
	DisableMuUpdate bool

	an      batchAnalyzer
	scratch greedy
}

// Name implements sim.Dispatcher.
func (g *IRG) Name() string { return "IRG" }

func (g *IRG) model() *queueing.Model {
	if g.Model == nil {
		g.Model = queueing.NewDefault()
	}
	return g.Model
}

// Assign implements sim.Dispatcher.
func (g *IRG) Assign(ctx *sim.Context) []sim.Assignment {
	a := g.an.working(g.model(), ctx)
	if g.DisableMuUpdate {
		return frozenGreedy(ctx, a, func(p sim.Pair, et float64) float64 {
			return queueing.IdleRatio(p.TripCost, et)
		})
	}
	return g.scratch.run(ctx, a, func(p sim.Pair, et float64) float64 {
		return queueing.IdleRatio(p.TripCost, et)
	})
}

// EstimateIdle implements sim.IdleEstimating: the expected idle time of
// a driver that just rejoined the given region. It uses the paper's
// state-conditional form T(n) of Section 4.2 — the driver sees the
// region's actual state n (waiting riders minus congested drivers) and
// expects (|n|+1)/lambda when no riders wait — rather than the marginal
// ET(lambda, mu), which averages over states the driver is not in. The
// marginal remains what the idle-ratio ranking uses (Eq. 17).
func (g *IRG) EstimateIdle(ctx *sim.Context, region geo.RegionID) float64 {
	return conditionalIdleEstimate(g.an.snapshot(g.model(), ctx), ctx, region)
}

// conditionalIdleEstimate evaluates T(n) for a driver arriving in region
// now: with waiting riders it is served at the next batch (half a batch
// interval on average is negligible; the paper treats it as 0); with n
// congested drivers ahead it waits for |n|+1 rider arrivals, (|n|+1)/lambda.
func conditionalIdleEstimate(a *queueing.Analyzer, ctx *sim.Context, region geo.RegionID) float64 {
	if !ctx.Grid.Valid(region) {
		return 0
	}
	lambda, _ := a.Rates(int(region))
	waiting := ctx.WaitingPerRegion[region]
	// The rejoined driver is already counted available; the queue ahead
	// of it holds the other available drivers.
	ahead := ctx.AvailablePerRegion[region] - 1
	if ahead < 0 {
		ahead = 0
	}
	n := waiting - ahead
	if n > 0 {
		return 0
	}
	if lambda <= 0 {
		return math.Inf(1)
	}
	return float64(-n+1) / lambda
}

// SHORT is Appendix C's shortest-total-time greedy: IRG with the
// selection score changed to cost + ET, which maximizes the number of
// served orders rather than revenue.
type SHORT struct {
	// Model is the queueing model; nil defaults to queueing.NewDefault().
	Model *queueing.Model

	an      batchAnalyzer
	scratch greedy
}

// Name implements sim.Dispatcher.
func (s *SHORT) Name() string { return "SHORT" }

// Assign implements sim.Dispatcher.
func (s *SHORT) Assign(ctx *sim.Context) []sim.Assignment {
	if s.Model == nil {
		s.Model = queueing.NewDefault()
	}
	a := s.an.working(s.Model, ctx)
	return s.scratch.run(ctx, a, func(p sim.Pair, et float64) float64 {
		return p.TripCost + et
	})
}

// frozenGreedy scores every pair once at batch start and never rescores:
// the mu-update ablation.
func frozenGreedy(ctx *sim.Context, a *queueing.Analyzer, score pairScore) []sim.Assignment {
	scores := make([]float64, len(ctx.Pairs))
	order := make([]int, len(ctx.Pairs))
	for i, p := range ctx.Pairs {
		scores[i] = score(p, a.ExpectedIdleTime(int(p.DestRegion)))
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := cmp.Compare(scores[i], scores[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	return firstFit(ctx, order)
}
