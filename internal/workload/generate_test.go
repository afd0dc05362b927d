package workload

import (
	"cmp"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/stats"
	"mrvd/internal/trace"
)

// generateDayReference is GenerateDay as one whole-day sort: the same
// draws in the same order, then every order of the day sorted by
// (PostTime, ID) and re-id'd in that order.
func generateDayReference(c *City, day int, rng *rand.Rand) []trace.Order {
	grid := c.cfg.Grid
	var orders []trace.Order
	scale := c.dayScale(day)
	for minute := 0; minute < 24*60; minute++ {
		p := PeriodOf(float64(minute * 60))
		mscale, w := c.minuteIntensity(scale, minute)
		for r := 0; r < grid.NumRegions(); r++ {
			k := stats.Poisson(rng, mscale*w[r])
			for i := 0; i < k; i++ {
				post := float64(minute*60) + rng.Float64()*60
				dst := c.sampleDest(rng, p, r)
				orders = append(orders, trace.Order{
					ID:       trace.OrderID(len(orders)),
					PostTime: post,
					Pickup:   randomPointIn(rng, grid, r),
					Dropoff:  randomPointIn(rng, grid, dst),
					Deadline: post + c.cfg.BaseWaitSeconds + 1 + rng.Float64()*9,
				})
			}
		}
	}
	sort.Slice(orders, func(i, j int) bool {
		if orders[i].PostTime != orders[j].PostTime {
			return orders[i].PostTime < orders[j].PostTime
		}
		return orders[i].ID < orders[j].ID
	})
	for i := range orders {
		orders[i].ID = trace.OrderID(i)
	}
	return orders
}

// TestGenerateDayMatchesWholeDaySort pins the minute-by-minute ordering
// to the whole-day sort, order for order, at the paper city's size and
// at a half and a tenth of it.
func TestGenerateDayMatchesWholeDaySort(t *testing.T) {
	byPost := func(a, b trace.Order) int {
		return cmp.Or(cmp.Compare(a.PostTime, b.PostTime), cmp.Compare(a.ID, b.ID))
	}
	for _, perDay := range []int{28_000, 141_000, 282_255} {
		c := NewCity(CityConfig{OrdersPerDay: perDay, Seed: 7})
		for seed := int64(1); seed <= 3; seed++ {
			got := c.GenerateDay(int(seed), rand.New(rand.NewSource(seed)))
			want := generateDayReference(c, int(seed), rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d orders/day, seed %d: GenerateDay (%d orders) differs from the whole-day sort (%d orders)",
					perDay, seed, len(got), len(want))
			}
			if !slices.IsSortedFunc(got, byPost) {
				t.Fatalf("%d orders/day, seed %d: not sorted by (PostTime, ID)", perDay, seed)
			}
		}
	}
}

// TestMinuteSorterOrdersByPostThenIndex checks the per-minute sort
// against a stable sort by post time where the generator's uniform post
// times never go: many equal post times, the minute's two ends, and
// every draw in one bin.
func TestMinuteSorterOrdersByPostThenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s minuteSorter
	for trial := 0; trial < 300; trial++ {
		base := float64(rng.Intn(1440) * 60)
		drawn := make([]trace.Order, rng.Intn(400))
		for i := range drawn {
			switch trial % 3 {
			case 0: // few distinct values, both ends included
				drawn[i].PostTime = base + float64(rng.Intn(7))*10
			case 1: // all in the first bin
				drawn[i].PostTime = base + rng.Float64()*1e-6
			default:
				drawn[i].PostTime = base + rng.Float64()*60
			}
		}
		want := make([]int32, len(drawn))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Compare(drawn[a].PostTime, drawn[b].PostTime)
		})
		if got := s.order(drawn, base); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d draws): order %v, want %v", trial, len(drawn), got, want)
		}
	}
}

// TestCityTablesPinned pins every table NewCity derives (pickup weights,
// destination CDFs and marginals, minute fractions), bit for bit, to
// digests recorded while each period recomputed the destination
// kernel's distance decay. An ulp's drift in a CDF moves too few draws
// for the replay pins to see.
func TestCityTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  CityConfig
		want uint64
	}{
		{CityConfig{OrdersPerDay: 282_255, Seed: 31}, 0xf413b070556d420d},
		{CityConfig{Grid: geo.NewGrid(geo.NYCBBox, 10, 12), Seed: 3}, 0x7be75368211078f9},
	} {
		c := NewCity(tc.cfg)
		h := fnv.New64a()
		put := func(xs []float64) {
			for _, x := range xs {
				u := math.Float64bits(x)
				h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24),
					byte(u >> 32), byte(u >> 40), byte(u >> 48), byte(u >> 56)})
			}
		}
		for p := range numPeriods {
			put(c.pickupW[p])
			for _, row := range c.destCDF[p] {
				put(row)
			}
			put(c.destMarginal[p])
		}
		put(c.minuteFrac)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%+v: table digest %#x, want %#x", tc.cfg, got, tc.want)
		}
	}
}

// TestMinuteIntensityConstantWithinHour is what lets GenerateDay and
// GenerateDayCounts prepare one Poisson rate per region and hour: every
// minute of an hour has its first minute's intensity in every region,
// bit for bit.
func TestMinuteIntensityConstantWithinHour(t *testing.T) {
	c := NewCity(CityConfig{OrdersPerDay: 282_255, Seed: 31})
	for day := 0; day < 3; day++ {
		scale := c.dayScale(day)
		for minute := 0; minute < 24*60; minute++ {
			hs, hw := c.minuteIntensity(scale, minute-minute%60)
			ms, mw := c.minuteIntensity(scale, minute)
			for r := range mw {
				if math.Float64bits(ms*mw[r]) != math.Float64bits(hs*hw[r]) {
					t.Fatalf("day %d minute %d region %d: intensity %v, its hour's %v", day, minute, r, ms*mw[r], hs*hw[r])
				}
			}
		}
	}
}
