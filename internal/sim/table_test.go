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
// cancellations, pooled plans, cruises, Engine.RemoveDriver and
// Engine.AddDriver — and checks in every batch that the driver table
// buildContext handed the dispatcher (patched from the index's change
// log, left as it was when the log is empty) equals one rebuilt from
// the index from scratch. Two trials stress the patch: in one a wave
// withdraws three quarters of the available fleet from the index in a
// single batch and adds as many drivers back in a later one; in the
// other AddDriver grows the fleet mid-run between admission and
// dispatch, as fleet re-homing does, moving e.drivers under the
// table's pointers.
func TestDriverTableReuseMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const waveTrial, growTrial = 6, 7
	const waveOut, waveIn = 1, 200 // batches the wave leaves and rejoins in
	reused, patched, waves, moved := 0, 0, 0, 0
	for trial := 0; trial < 8; trial++ {
		orders, drivers := randomScenario(rng)
		rec := &recordingObserver{}
		cfg := Config{
			Delta: 5, TC: 600, Horizon: 4000, Observer: rec,
			Repositioner:    randomRepositioner{rng: rand.New(rand.NewSource(int64(trial)))},
			RepositionAfter: 60,
			Scenario:        ScenarioConfig{CancelRate: 0.2, DeclineProb: 0.2, TravelNoise: 0.2, Seed: int64(trial)},
			Pooling:         pool.Config{Capacity: 3, MaxDetourSeconds: 400},
		}
		var e *Engine
		check := funcDispatcher(func(ctx *Context) []Assignment {
			if n := len(e.arena.changed); n == 0 {
				reused++
			} else {
				patched++
				if trial == waveTrial && (ctx.Now == waveOut*cfg.Delta || ctx.Now == waveIn*cfg.Delta) && 2*n >= len(drivers) {
					waves++
				}
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
		var m *Metrics
		if trial == waveTrial || trial == growTrial {
			if err := e.Begin(); err != nil {
				t.Fatal(err)
			}
			var left []geo.Point // positions of the drivers the wave withdrew
			for batch, now := 0, 0.0; now < cfg.Horizon; batch, now = batch+1, now+cfg.Delta {
				e.StepAdmit(now)
				switch {
				case trial == waveTrial && batch == waveOut:
					for id := range e.drivers {
						if id%4 != 0 {
							if pos, _, ok := e.RemoveDriver(DriverID(id)); ok {
								left = append(left, pos)
							}
						}
					}
				case trial == waveTrial && batch == waveIn:
					for _, pos := range left {
						e.AddDriver(pos, now)
					}
				case trial == growTrial && batch%9 == 4:
					before := &e.drivers[0]
					e.AddDriver(geo.Point{
						Lng: geo.NYCBBox.MinLng + rng.Float64()*(geo.NYCBBox.MaxLng-geo.NYCBBox.MinLng),
						Lat: geo.NYCBBox.MinLat + rng.Float64()*(geo.NYCBBox.MaxLat-geo.NYCBBox.MinLat),
					}, now)
					if &e.drivers[0] != before {
						moved++
					}
				}
				if err := e.StepDispatch(now, check); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			m = e.Finish()
		} else {
			var err error
			if m, err = e.Run(context.Background(), check); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		checkRunInvariants(t, e, m, rec)
	}
	if reused == 0 || patched == 0 || waves < 2 || moved == 0 {
		t.Fatalf("%d batches with an empty change log, %d patched, %d of 2 wave batches moving half the fleet, %d AddDriver calls moving the fleet; the run must exercise each",
			reused, patched, waves, moved)
	}
	t.Logf("%d batches reused the driver table, %d patched it (%d in waves); AddDriver moved the fleet %d times", reused, patched, waves, moved)
}
