package dispatch

import (
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/sim"
)

// TestDispatchersAgainstHungarianOptimum is the small-instance
// differential oracle: on batches small enough to solve exactly, no
// dispatcher may return an invalid matching or collect more batch
// revenue (the sum of assigned trip costs) than the maximum-weight
// matching over the valid pairs, and UPPER — which ignores pair validity
// — may not collect less.
func TestDispatchersAgainstHungarianOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		ctx := randomScoredContext(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		w := make([][]float64, len(ctx.Riders))
		for r := range w {
			w[r] = make([]float64, len(ctx.Drivers))
			for d := range w[r] {
				w[r][d] = math.Inf(-1)
			}
		}
		for _, p := range ctx.Pairs {
			w[p.R][p.D] = p.TripCost
		}
		_, optimum := maxWeight(w)

		revenue := func(d sim.Dispatcher) float64 {
			as := d.Assign(ctx)
			checkValid(t, ctx, as)
			sum := 0.0
			for _, a := range as {
				sum += ctx.Riders[a.R].TripCost
			}
			return sum
		}
		const eps = 1e-6
		for _, d := range []sim.Dispatcher{
			&IRG{}, &LS{}, &SHORT{}, LTG{}, NEAR{}, &RAND{Seed: int64(trial)}, &POLAR{},
		} {
			if got := revenue(d); got > optimum+eps {
				t.Errorf("trial %d: %s revenue %.3f exceeds the Hungarian optimum %.3f", trial, d.Name(), got, optimum)
			}
		}
		if got := revenue(UPPER{}); got < optimum-eps {
			t.Errorf("trial %d: UPPER revenue %.3f below the Hungarian optimum %.3f", trial, got, optimum)
		}
	}
}
