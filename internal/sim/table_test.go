package sim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/pool"
)

// TestDriverTableReuseMatchesRebuild runs batches with every layer that
// moves drivers in or out of the available index — declines and
// cancellations, pooled plans, cruises, shift joins and leaves — and
// checks in every batch that the driver table buildContext handed the
// dispatcher (reused while Index.Gen and the fleet size hold) equals
// one rebuilt from the index from scratch.
func TestDriverTableReuseMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	reused, rebuilt := 0, 0
	for trial := 0; trial < 6; trial++ {
		orders, drivers := randomScenario(rng)
		shifts := make([]Shift, len(drivers))
		for i := range shifts {
			if rng.Intn(2) == 0 {
				shifts[i] = Shift{JoinAt: rng.Float64() * 1000, LeaveAt: 2000 + rng.Float64()*2000}
			}
		}
		cfg := Config{
			Delta: 5, TC: 600, Horizon: 4000,
			Shifts:          shifts,
			Repositioner:    randomRepositioner{rng: rand.New(rand.NewSource(int64(trial)))},
			RepositionAfter: 60,
			Scenario:        ScenarioConfig{CancelRate: 0.2, DeclineProb: 0.2, TravelNoise: 0.2, Seed: int64(trial)},
			Pooling:         pool.Config{Capacity: 3, MaxDetourSeconds: 400},
		}
		var e *Engine
		lastGen := ^uint64(0)
		check := funcDispatcher(func(ctx *Context) []Assignment {
			if gen := e.idx.Gen(); gen == lastGen {
				reused++
			} else {
				rebuilt++
				lastGen = gen
			}
			var wantDrivers []*Driver
			var wantRegion []geo.RegionID
			wantAvail := make([]int, cfg.Grid.NumRegions())
			for id, region := range e.idx.Regions() {
				if region < 0 {
					continue
				}
				if slot := e.arena.driverSlot[id]; int(slot) != len(wantDrivers) {
					t.Fatalf("trial %d t=%v: driver %d in slot %d, want %d", trial, ctx.Now, id, slot, len(wantDrivers))
				}
				wantDrivers = append(wantDrivers, &e.drivers[id])
				wantRegion = append(wantRegion, region)
				wantAvail[region]++
			}
			// Drivers compare as pointers: each slot must point at the
			// engine's live Driver.
			if !slices.Equal(ctx.Drivers, wantDrivers) || !slices.Equal(ctx.DriverRegion, wantRegion) ||
				!slices.Equal(ctx.AvailablePerRegion, wantAvail) {
				t.Fatalf("trial %d t=%v: driver table differs from a rebuild:\n got %v %v %v\nwant %v %v %v", trial, ctx.Now,
					ctx.Drivers, ctx.DriverRegion, ctx.AvailablePerRegion, wantDrivers, wantRegion, wantAvail)
			}
			for slot, d := range ctx.Drivers {
				if d.State != Available {
					t.Fatalf("trial %d t=%v: slot %d holds driver %d in state %v", trial, ctx.Now, slot, d.ID, d.State)
				}
			}
			return poolGreedy{}.Assign(ctx)
		})
		cfg = cfg.withDefaults()
		e = New(cfg, orders, drivers)
		m, err := e.Run(context.Background(), check)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRunInvariants(t, e, m)
	}
	if reused == 0 || rebuilt == 0 {
		t.Fatalf("%d batches reused the table and %d rebuilt it; the run must exercise both", reused, rebuilt)
	}
	t.Logf("%d batches reused the driver table, %d rebuilt it", reused, rebuilt)
}
