package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

// carryCheck hands each batch on to a dispatcher after checking every
// rider's candidate list in the engine's arena — carried from the last
// build or scanned afresh, and extended by the pair loop — against a
// fresh scan of the index. The list holds the scan's entries; its
// ordered prefix is the scan's, in order; no entry of its unordered
// tail comes before the prefix's last; and every valid pair the batch
// holds for the rider is with a prefix entry, the only ones the pair
// loop may read. With a CandidateCap or a batch coster the whole list
// is ordered.
type carryCheck struct {
	Dispatcher
	t       *testing.T
	e       *Engine
	seen    map[*Rider]bool
	carried int // rider-batches after the rider's first
	tails   int // rider-batches whose list has an unordered tail
}

func (c *carryCheck) Assign(ctx *Context) []Assignment {
	e := c.e
	next := 0 // ctx.Pairs is grouped by rider
	for wi, r := range ctx.Riders {
		got := e.arena.cand[r.candLo:r.candHi]
		sorted := int(r.candSorted)
		radius := (r.Order.Deadline - ctx.Now) * radiusSpeedMPS
		want := e.idx.AppendNearest(nil, r.Order.Pickup, r.scan, e.cfg.CandidateCap, radius)
		fail := func(format string, args ...any) {
			c.t.Helper()
			c.t.Fatalf("t=%v order %d, candidates %v (%d ordered), a fresh scan finds %v: "+format,
				append([]any{ctx.Now, r.Order.ID, got, sorted, want}, args...)...)
		}
		if all := slices.SortedFunc(slices.Values(got), geo.NearCmp); !slices.Equal(all, want) {
			fail("not the same drivers")
		}
		if !slices.Equal(got[:sorted], want[:sorted]) {
			fail("the ordered prefix is not the scan's")
		}
		for _, nb := range got[sorted:] {
			if sorted > 0 && geo.NearCmp(nb, got[sorted-1]) < 0 {
				fail("tail entry %v comes before the prefix's last", nb)
			}
		}
		if sorted < len(got) {
			if e.cfg.CandidateCap > 0 || e.dense != nil {
				fail("a list a CandidateCap or a batch coster reads is not ordered whole")
			}
			c.tails++
		}
		for ; next < len(ctx.Pairs) && int(ctx.Pairs[next].R) == wi; next++ {
			id := int32(ctx.Drivers[ctx.Pairs[next].D].ID)
			if !slices.ContainsFunc(got[:sorted], func(nb geo.Neighbor) bool { return nb.ID == id }) {
				fail("valid pair with driver %d, outside the ordered prefix", id)
			}
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
	drivers := make([]geo.Point, 30+rng.Intn(300))
	for i := range drivers {
		drivers[i] = randPoint()
	}
	return orders, drivers
}

// TestCarriedCandidatesMatchFreshScan checks, on every batch, that the
// list each waiting rider carries from the last build keeps carryCheck's
// contract with a fresh scan of the index — the scan's drivers, its
// nearest-first prefix, a tail after it — in radius mode, with a small
// cap (so full lists lose members and rescan) and under a batch coster,
// plain and under scenario declines and cancels, drivers repositioning,
// pooling, and a two-engine lockstep run that re-homes drivers through
// RemoveDriver/AddDriver. In radius mode some lists must run long
// enough to keep an unordered tail.
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
		{"batch", func(c *Config, rng *rand.Rand) {
			c.Coster = roadnet.NewGraphCoster(roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 12, Cols: 12, Seed: rng.Int63()}))
		}, takeAll{}},
	}
	rng := rand.New(rand.NewSource(46))
	for _, capacity := range []int{0, 3} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/cap%d", v.name, capacity), func(t *testing.T) {
				carried, tails := 0, 0
				for trial := 0; trial < 4; trial++ {
					orders, drivers := contestedInstance(rng)
					cfg := Config{Delta: float64(3 + rng.Intn(8)), TC: 600, Horizon: 2400, CandidateCap: capacity}
					v.edit(&cfg, rng)
					e := New(cfg, orders, drivers)
					c := &carryCheck{Dispatcher: v.d, t: t, e: e, seen: map[*Rider]bool{}}
					if _, err := e.Run(context.Background(), c); err != nil {
						t.Fatal(err)
					}
					carried, tails = carried+c.carried, tails+c.tails
				}
				if carried == 0 {
					t.Fatal("no rider waited a second batch: the check compared no carried list")
				}
				if capacity == 0 && v.name != "batch" && tails == 0 {
					t.Fatal("no list kept an unordered tail: the check compared only whole-ordered lists")
				}
				t.Logf("%d carried rider-batches, %d lists with a tail", carried, tails)
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

// TestOrderNearestMatchesSort checks orderNearest against a full sort
// by geo.NearCmp, on lists of 0 to 500 entries around the 2m cut-over
// between the insertion sort and the heap selection: distinct
// distances, a few distances shared by many ids, and one stack of
// drivers at a single distance. It must order all of a list of at most
// 2m entries and m of a longer one, those being the sort's first, in
// its order, and leave behind them exactly the sort's other entries.
func TestOrderNearestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	kinds := []struct {
		name     string
		distance func() float64
	}{
		{"distinct", func() float64 { return rng.Float64() * 5000 }},
		{"ties", func() float64 { return float64(100 * (1 + rng.Intn(4))) }},
		{"stacked", func() float64 { return 1234.5 }},
	}
	for _, kind := range kinds {
		for _, n := range []int{0, 1, 12, 13, 24, 25, 500} {
			for _, m := range []int{1, 5, maxCandidatesPerRider} {
				list := make([]geo.Neighbor, n)
				for i, id := range rng.Perm(n) {
					list[i] = geo.Neighbor{ID: int32(id), Distance: kind.distance()}
				}
				want := slices.SortedFunc(slices.Values(list), geo.NearCmp)
				got := orderNearest(list, m)
				wantN := m
				if n <= 2*m {
					wantN = n
				}
				where := fmt.Sprintf("%s n=%d m=%d", kind.name, n, m)
				if got != wantN {
					t.Fatalf("%s: ordered %d entries, want %d", where, got, wantN)
				}
				if !slices.Equal(list[:got], want[:got]) {
					t.Fatalf("%s: prefix %v, the sort's is %v", where, list[:got], want[:got])
				}
				if rest := slices.SortedFunc(slices.Values(list[got:]), geo.NearCmp); !slices.Equal(rest, want[got:]) {
					t.Fatalf("%s: the entries behind the prefix are not the sort's others", where)
				}
			}
		}
	}
}
