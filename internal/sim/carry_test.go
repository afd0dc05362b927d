package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/trace"
)

// carryCheck hands each batch on to a dispatcher after comparing every
// rider's candidate list in the engine's arena — carried from the last
// build or scanned afresh — with a fresh scan of the index: as sets in
// radius mode, in order with a CandidateCap.
type carryCheck struct {
	Dispatcher
	t       *testing.T
	e       *Engine
	seen    map[*Rider]bool
	carried int // rider-batches after the rider's first
}

func (c *carryCheck) Assign(ctx *Context) []Assignment {
	e := c.e
	for _, r := range ctx.Riders {
		got := slices.Clone(e.arena.cand[r.candLo:r.candHi])
		radius := (r.Order.Deadline - ctx.Now) * radiusSpeedMPS
		var want []geo.Neighbor
		if k := e.cfg.CandidateCap; k > 0 {
			want = e.idx.AppendNearest(nil, r.Order.Pickup, r.scan, k, radius)
		} else {
			want = e.idx.AppendInRadius(nil, r.Order.Pickup, r.scan, radius)
			slices.SortFunc(got, geo.NearCmp)
			slices.SortFunc(want, geo.NearCmp)
		}
		if !slices.Equal(got, want) {
			c.t.Fatalf("t=%v order %d: candidates %v, a fresh scan finds %v", ctx.Now, r.Order.ID, got, want)
		}
		if c.seen[r] {
			c.carried++
		}
		c.seen[r] = true
	}
	return c.Dispatcher.Assign(ctx)
}

// contestedInstance is a random half hour in which riders wait up to
// ten minutes, so lists run long and change under them every batch.
func contestedInstance(rng *rand.Rand) ([]trace.Order, []geo.Point) {
	box := geo.NYCBBox
	randPoint := func() geo.Point {
		return geo.Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		}
	}
	orders := make([]trace.Order, 150+rng.Intn(250))
	for i := range orders {
		post := rng.Float64() * 1800
		orders[i] = trace.Order{
			ID: trace.OrderID(i), PostTime: post, Pickup: randPoint(), Dropoff: randPoint(),
			Deadline: post + 60 + rng.Float64()*540,
		}
	}
	drivers := make([]geo.Point, 30+rng.Intn(60))
	for i := range drivers {
		drivers[i] = randPoint()
	}
	return orders, drivers
}

// TestCarriedCandidatesMatchFreshScan checks, on every batch, that the
// list each waiting rider carries from the last build equals what a
// fresh scan of the index returns, in radius mode and with a small cap
// (so full lists lose members and rescan), plain and under scenario
// declines and cancels, drivers repositioning, pooling, and a
// two-engine lockstep run that re-homes drivers through
// RemoveDriver/AddDriver.
func TestCarriedCandidatesMatchFreshScan(t *testing.T) {
	variants := []struct {
		name string
		edit func(*Config, *rand.Rand)
		d    Dispatcher
	}{
		{"plain", func(*Config, *rand.Rand) {}, takeAll{}},
		{"scenario", func(c *Config, rng *rand.Rand) {
			c.Scenario = ScenarioConfig{CancelRate: 0.3, DeclineProb: 0.2, Seed: rng.Int63()}
		}, takeAll{}},
		{"reposition", func(c *Config, rng *rand.Rand) {
			c.Repositioner, c.RepositionAfter = randomRepositioner{rng}, 60
		}, takeAll{}},
		{"pooling", func(c *Config, _ *rand.Rand) {
			c.Pooling = pool.Config{Capacity: 3, MaxDetourSeconds: 400}
		}, poolGreedy{}},
	}
	rng := rand.New(rand.NewSource(46))
	for _, capacity := range []int{0, 3} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/cap%d", v.name, capacity), func(t *testing.T) {
				carried := 0
				for trial := 0; trial < 4; trial++ {
					orders, drivers := contestedInstance(rng)
					cfg := Config{Delta: float64(3 + rng.Intn(8)), TC: 600, Horizon: 2400, CandidateCap: capacity}
					v.edit(&cfg, rng)
					e := New(cfg, orders, drivers)
					c := &carryCheck{Dispatcher: v.d, t: t, e: e, seen: map[*Rider]bool{}}
					if _, err := e.Run(context.Background(), c); err != nil {
						t.Fatal(err)
					}
					carried += c.carried
				}
				if carried == 0 {
					t.Fatal("no rider waited a second batch: the check compared no carried list")
				}
			})
		}
		t.Run(fmt.Sprintf("two-shard/cap%d", capacity), func(t *testing.T) {
			rehomed := 0
			for trial := 0; trial < 4; trial++ {
				rehomed += runTwoEngineCarry(t, rng, capacity)
			}
			if rehomed == 0 {
				t.Fatal("no driver was re-homed")
			}
		})
	}
}

// runTwoEngineCarry replays a contested instance on two engines, west
// and east of the grid's middle column, stepped in lockstep the way the
// shard runtime steps them: both admit, every driver that joined an
// engine standing in the other's half moves there, both dispatch. It
// returns how many drivers moved.
func runTwoEngineCarry(t *testing.T, rng *rand.Rand, capacity int) int {
	t.Helper()
	orders, drivers := contestedInstance(rng)
	cfg := Config{Delta: 3, TC: 600, Horizon: 2400, CandidateCap: capacity}.withDefaults()
	owner := func(r geo.RegionID) int {
		if _, col := cfg.Grid.RowCol(r); col < cfg.Grid.Cols()/2 {
			return 0
		}
		return 1
	}
	var shardOrders [2][]trace.Order
	var shardDrivers [2][]geo.Point
	for _, o := range orders {
		s := owner(cfg.Grid.Region(o.Pickup))
		shardOrders[s] = append(shardOrders[s], o)
	}
	for _, p := range drivers {
		s := owner(cfg.Grid.Region(p))
		shardDrivers[s] = append(shardDrivers[s], p)
	}
	var engines [2]*Engine
	var checks [2]*carryCheck
	for s := range engines {
		engines[s] = New(cfg, shardOrders[s], shardDrivers[s])
		checks[s] = &carryCheck{Dispatcher: takeAll{}, t: t, e: engines[s], seen: map[*Rider]bool{}}
		if err := engines[s].Begin(); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for now := 0.0; now < cfg.Horizon; now += cfg.Delta {
		for _, e := range engines {
			e.StepAdmit(now)
		}
		for s, e := range engines {
			var leaving []DriverID
			e.EachJoined(func(id DriverID, region geo.RegionID) {
				if owner(region) != s {
					leaving = append(leaving, id)
				}
			})
			for _, id := range leaving {
				if pos, freeAt, ok := e.RemoveDriver(id); ok {
					engines[1-s].AddDriver(pos, freeAt)
					moved++
				}
			}
		}
		for s, e := range engines {
			if err := e.StepDispatch(now, checks[s]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return moved
}
