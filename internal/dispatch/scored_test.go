package dispatch

import (
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/sim"
)

// bruteGreedy re-evaluates every remaining pair's score after each
// commitment — the O(P^2) reference implementation of Algorithm 2's
// greedy loop that the lazy heap must match.
func bruteGreedy(ctx *sim.Context, a *queueing.Analyzer, score pairScore) []sim.Assignment {
	usedR := make([]bool, len(ctx.Riders))
	usedD := make([]bool, len(ctx.Drivers))
	var out []sim.Assignment
	for {
		best := -1
		bestScore := 0.0
		for i, p := range ctx.Pairs {
			if usedR[p.R] || usedD[p.D] {
				continue
			}
			s := score(p, a.ExpectedIdleTime(int(p.DestRegion)))
			if best == -1 || s < bestScore {
				best = i
				bestScore = s
			}
		}
		if best == -1 {
			return out
		}
		p := ctx.Pairs[best]
		usedR[p.R] = true
		usedD[p.D] = true
		out = append(out, sim.Assignment{R: p.R, D: p.D})
		a.CommitDestination(int(p.DestRegion))
	}
}

// randomScoredContext fabricates a random batch of the given size, each
// rider-driver pair valid with probability one half.
func randomScoredContext(rng *rand.Rand, riders, drivers int) *sim.Context {
	grid := geo.NewGrid(geo.NYCBBox, 4, 4)
	n := grid.NumRegions()
	ctx := &sim.Context{
		Now: 0, TC: 600, Grid: grid,
		WaitingPerRegion:   make([]int, n),
		AvailablePerRegion: make([]int, n),
		Forecast:           newFixedForecast(n),
	}
	for k := 0; k < n; k++ {
		predicted(ctx).riders[k] = rng.Intn(25)
		predicted(ctx).drivers[k] = rng.Intn(10)
	}
	for r := 0; r < riders; r++ {
		ctx.Riders = append(ctx.Riders, &sim.Rider{
			TripCost:   100 + rng.Float64()*1500,
			DestRegion: geo.RegionID(rng.Intn(n)),
		})
		ctx.RiderRegion = append(ctx.RiderRegion, geo.RegionID(rng.Intn(n)))
	}
	for d := 0; d < drivers; d++ {
		ctx.Drivers = append(ctx.Drivers, &sim.Driver{ID: sim.DriverID(d)})
		ctx.DriverRegion = append(ctx.DriverRegion, geo.RegionID(rng.Intn(n)))
	}
	for r := 0; r < riders; r++ {
		for d := 0; d < drivers; d++ {
			if rng.Float64() < 0.5 {
				ctx.Pairs = append(ctx.Pairs, sim.Pair{
					R: int32(r), D: int32(d),
					PickupCost: rng.Float64() * 100,
					TripCost:   ctx.Riders[r].TripCost,
					DestRegion: ctx.Riders[r].DestRegion,
				})
			}
		}
	}
	return ctx
}

func TestLazyGreedyMatchesBruteForceReference(t *testing.T) {
	// The lazy-rescoring heap is only correct because committing a pair
	// can never *decrease* another pair's score (ET is monotone in mu).
	// Verify against the quadratic reference across random batches for
	// both score functions (IRG's ratio and SHORT's sum).
	rng := rand.New(rand.NewSource(41))
	model := queueing.NewDefault()
	scores := map[string]pairScore{
		"idle-ratio": func(p sim.Pair, et float64) float64 { return queueing.IdleRatio(p.TripCost, et) },
		"cost+ET":    func(p sim.Pair, et float64) float64 { return p.TripCost + et },
	}
	for trial := 0; trial < 25; trial++ {
		ctx := randomScoredContext(rng, 5+rng.Intn(20), 2+rng.Intn(10))
		for name, score := range scores {
			lazy := new(greedy).run(ctx, buildAnalyzer(model, ctx), score)
			brute := bruteGreedy(ctx, buildAnalyzer(model, ctx), score)
			if len(lazy) != len(brute) {
				t.Fatalf("trial %d %s: lazy %d pairs, brute %d", trial, name, len(lazy), len(brute))
			}
			for i := range lazy {
				if lazy[i] != brute[i] {
					t.Fatalf("trial %d %s: assignment %d differs: %+v vs %+v",
						trial, name, i, lazy[i], brute[i])
				}
			}
		}
	}
}
