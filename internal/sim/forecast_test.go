package sim_test

import (
	"context"
	"sort"
	"testing"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

// eagerRejoins counts every region's rejoins in [now, now+tc) at once,
// as the engine did before its forecast became per-region and lazy.
func eagerRejoins(lists [][]float64, now, tc float64) []int {
	out := make([]int, len(lists))
	until := now + tc
	for k, times := range lists {
		n := len(times)
		if n == 0 || times[0] >= now && times[n-1] < until {
			out[k] = n
			continue
		}
		if i := sort.SearchFloat64s(times, now); i > 0 {
			times = times[i:]
		}
		out[k] = sort.SearchFloat64s(times, until)
	}
	return out
}

// eagerWindowCounts is core's forecast as it was computed for every
// region at once: per-slot forecasts weighted by their overlap with
// [now, now+tc].
func eagerWindowCounts(now, tc, slotSeconds float64, numSlots int, slotRow func(slot int) []float64, n int) []int {
	acc, out := make([]float64, n), make([]int, n)
	end := now + tc
	for s := int(now / slotSeconds); s <= int(end/slotSeconds); s++ {
		slotStart := float64(s) * slotSeconds
		lo := max(now, slotStart)
		hi := min(end, slotStart+slotSeconds)
		if hi <= lo {
			continue
		}
		frac := (hi - lo) / slotSeconds
		row := slotRow(min(s, numSlots-1))
		for k := range acc {
			acc[k] += frac * row[k]
		}
	}
	for k := range out {
		out[k] = int(acc[k] + 0.5)
	}
	return out
}

// eagerCheck recounts a batch's forecast eagerly as the dispatcher
// starts on it, and compares every region's on-demand prediction against
// the recount once the batch is applied: the Repositioner is the last
// reader of a batch, after apply has scheduled the batch's new rejoins.
type eagerCheck struct {
	t        *testing.T
	e        *sim.Engine
	d        sim.Dispatcher
	irg      *dispatch.IRG               // estimates idle times, whatever d is
	riders   func(now, tc float64) []int // the eager recount of |^R_k|
	ctx      *sim.Context                // the batch the recount is for, until checked
	drivers  []int
	want     []int
	batches  int
	checked  int
	nonzeroD int
	nonzeroR int
}

func (c *eagerCheck) Name() string { return c.d.Name() }

func (c *eagerCheck) Assign(ctx *sim.Context) []sim.Assignment {
	c.ctx = ctx
	c.drivers = eagerRejoins(c.e.RejoinTimes(), ctx.Now, ctx.TC)
	c.want = c.riders(ctx.Now, ctx.TC)
	c.batches++
	return c.d.Assign(ctx)
}

func (c *eagerCheck) EstimateIdle(ctx *sim.Context, region geo.RegionID) float64 {
	return c.irg.EstimateIdle(ctx, region)
}

func (c *eagerCheck) Target(ctx *sim.Context, _ *sim.Driver, _ geo.RegionID) (geo.Point, bool) {
	if ctx != c.ctx {
		return geo.Point{}, false
	}
	c.ctx = nil
	for k := range c.drivers {
		region := geo.RegionID(k)
		if got := ctx.PredictedDrivers(region); got != c.drivers[k] {
			c.t.Fatalf("t=%.0f region %d: PredictedDrivers %d, eager count %d", ctx.Now, k, got, c.drivers[k])
		}
		if got := ctx.PredictedRiders(region); got != c.want[k] {
			c.t.Fatalf("t=%.0f region %d: PredictedRiders %d, eager windowCounts %d", ctx.Now, k, got, c.want[k])
		}
		if c.drivers[k] > 0 {
			c.nonzeroD++
		}
		if c.want[k] > 0 {
			c.nonzeroR++
		}
	}
	c.checked++
	return geo.Point{}, false
}

// TestForecastMatchesEagerCounts replays a small city under IRG with
// the oracle and the trained-model forecasts, and under NEAR, which
// reads no prediction, so that its assignments add rejoins to regions
// no one has read yet: in every checked batch, every region's
// PredictedDrivers and PredictedRiders — computed when first read, some
// by the dispatcher, the rest after the batch's assignments — equal an
// eager recount of every region taken as the dispatcher starts.
func TestForecastMatchesEagerCounts(t *testing.T) {
	const slotSeconds = 1800 // core's prediction slot
	city := workload.NewCity(workload.CityConfig{Grid: geo.NewGrid(geo.NYCBBox, 8, 8), OrdersPerDay: 40000, Seed: 31})
	n := city.Grid().NumRegions()
	for _, tc := range []struct {
		alg  string
		mode core.PredictionMode
	}{{"IRG", core.PredictOracle}, {"IRG", core.PredictModel}, {"NEAR", core.PredictOracle}} {
		mode := tc.mode
		d, err := core.NewDispatcher(tc.alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := &eagerCheck{t: t, d: d, irg: &dispatch.IRG{}}
		opts := core.Options{
			City: city, NumDrivers: 60, Delta: 10, TC: 1200, Horizon: 3 * 3600, Seed: 4,
			TrainDays: predict.MinLookbackDays + 2, Repositioner: c, RepositionAfter: 1,
		}
		r := core.NewRunner(opts)
		var model predict.Predictor
		switch mode {
		case core.PredictOracle:
			expected := city.ExpectedDayCounts(opts.TrainDays, slotSeconds)
			c.riders = func(now, tc float64) []int {
				return eagerWindowCounts(now, tc, slotSeconds, len(expected),
					func(slot int) []float64 { return expected[slot] }, n)
			}
		case core.PredictModel:
			model = predict.HA{}
			trained, err := r.TrainedPredictor(model)
			if err != nil {
				t.Fatal(err)
			}
			h := r.History()
			c.riders = func(now, tc float64) []int {
				return eagerWindowCounts(now, tc, slotSeconds, h.SlotsPerDay, func(slot int) []float64 {
					row := make([]float64, n)
					for k := range row {
						row[k] = trained.Predict(h, opts.TrainDays, slot, k)
					}
					return row
				}, n)
			}
		}
		e, err := r.Session(sim.NewSliceSource(r.Orders()), nil, mode, model)
		if err != nil {
			t.Fatal(err)
		}
		c.e = e
		m, err := e.Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s mode %d: %d of %d batches checked, %d nonzero driver and %d nonzero rider predictions, %d served",
			tc.alg, mode, c.checked, c.batches, c.nonzeroD, c.nonzeroR, m.Served)
		if m.Served == 0 || c.checked < c.batches/2 || c.nonzeroD == 0 || c.nonzeroR == 0 {
			t.Fatalf("%s mode %d: served %d, checked %d of %d batches, %d/%d nonzero predictions: the replay exercised nothing",
				tc.alg, mode, m.Served, c.checked, c.batches, c.nonzeroD, c.nonzeroR)
		}
	}
}
