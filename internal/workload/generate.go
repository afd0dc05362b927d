package workload

import (
	"math"
	"math/rand"
	"slices"

	"mrvd/internal/geo"
	"mrvd/internal/stats"
	"mrvd/internal/trace"
)

// Weather is the categorical day-level weather feature DeepST-style
// predictors consume.
type Weather int

// Weather categories with their conventional demand effect.
const (
	Clear Weather = iota
	Rain          // rain lifts taxi demand
	Snow          // snow lifts it further
	numWeather
)

// DayMeta carries the metadata features of one simulated day.
type DayMeta struct {
	Day     int     // day index from the epoch of the generated history
	DOW     int     // 0 = Monday ... 6 = Sunday
	Weather Weather // categorical weather
	Factor  float64 // multiplicative demand factor combining all effects
}

// dowFactor reflects weekday/weekend demand differences.
var dowFactor = [7]float64{1.0, 0.98, 1.0, 1.02, 1.08, 0.85, 0.72}

var weatherFactor = [numWeather]float64{Clear: 1.0, Rain: 1.12, Snow: 1.25}

// DayMeta deterministically derives a day's metadata from the city seed,
// so training history and the simulated test day agree on it. Results are
// memoized: Intensity calls this on hot loops.
func (c *City) DayMeta(day int) DayMeta {
	c.metaMu.RLock()
	m, ok := c.metaCache[day]
	c.metaMu.RUnlock()
	if ok {
		return m
	}
	m = c.computeDayMeta(day)
	c.metaMu.Lock()
	c.metaCache[day] = m
	c.metaMu.Unlock()
	return m
}

func (c *City) computeDayMeta(day int) DayMeta {
	rng := rand.New(rand.NewSource(c.cfg.Seed*1_000_003 + int64(day)))
	w := Clear
	switch r := rng.Float64(); {
	case r < 0.20:
		w = Rain
	case r < 0.27:
		w = Snow
	}
	dow := ((day % 7) + 7) % 7
	noise := 1 + 0.03*rng.NormFloat64() // day-to-day idiosyncrasy
	if noise < 0.8 {
		noise = 0.8
	}
	return DayMeta{
		Day:     day,
		DOW:     dow,
		Weather: w,
		Factor:  dowFactor[dow] * weatherFactor[w] * noise,
	}
}

// GenerateDay materializes the full order trace of one day: per-minute,
// per-region Poisson arrivals with uniform placement inside the region,
// destinations from the period's transition kernel, and deadlines
// tau_i = t_i + tau + U[1,10] exactly as Section 6.2 configures. The
// orders come sorted by post time and re-id'd in that order.
//
// The day is ordered one minute at a time. Minute m's orders post in
// [60m, 60(m+1)] (the top only by rounding) and are drawn before minute
// m+1's, so ordering by (post time, draw index) within each minute and
// concatenating the minutes gives the (PostTime, ID) order of the whole
// day that SortByPostTime would.
func (c *City) GenerateDay(day int, rng *rand.Rand) []trace.Order {
	grid := c.cfg.Grid
	n := grid.NumRegions()
	// scale is the day's expected order count; 4σ on top makes a regrow rare.
	scale := c.dayScale(day)
	orders := make([]trace.Order, 0, int(scale+4*math.Sqrt(scale))+16)
	var drawn []trace.Order
	var sorter minuteSorter
	rates := make([]stats.PoissonRate, n)
	for minute := 0; minute < 24*60; minute++ {
		p := PeriodOf(float64(minute * 60))
		if minute%60 == 0 {
			c.hourRates(rates, scale, minute)
		}
		drawn = drawn[:0]
		for r := 0; r < n; r++ {
			k := rates[r].Draw(rng)
			for i := 0; i < k; i++ {
				post := float64(minute*60) + rng.Float64()*60
				dst := c.sampleDest(rng, p, r)
				drawn = append(drawn, trace.Order{
					PostTime: post,
					Pickup:   randomPointIn(rng, grid, r),
					Dropoff:  randomPointIn(rng, grid, dst),
					Deadline: post + c.cfg.BaseWaitSeconds + 1 + rng.Float64()*9,
				})
			}
		}
		for _, i := range sorter.order(drawn, float64(minute*60)) {
			o := drawn[i]
			o.ID = trace.OrderID(len(orders))
			orders = append(orders, o)
		}
	}
	return orders
}

// minuteSorter orders one minute's draws by (post time, draw index),
// keeping its buffers from minute to minute.
type minuteSorter struct{ count, perm []int32 }

// order returns the indexes of drawn, whose post times lie in
// [base, base+60], in (PostTime, index) order. A stable counting sort
// deals the draws into len(drawn) equal bins of the minute; a stable
// insertion sort then orders each bin's few draws, and equal post
// times, sharing a bin, keep their draw order. The sort is complete
// whatever the bins hold; uniform post times only make it linear.
func (s *minuteSorter) order(drawn []trace.Order, base float64) []int32 {
	n := len(drawn)
	bin := func(post float64) int { return min(int((post-base)*float64(n)/60), n-1) }
	s.count = slices.Grow(s.count[:0], n+1)[:n+1]
	clear(s.count)
	for _, o := range drawn {
		s.count[bin(o.PostTime)+1]++
	}
	for i := 1; i <= n; i++ {
		s.count[i] += s.count[i-1]
	}
	s.perm = slices.Grow(s.perm[:0], n)[:n]
	for i, o := range drawn {
		at := &s.count[bin(o.PostTime)]
		s.perm[*at] = int32(i)
		*at++
	}
	perm := s.perm
	for i := 1; i < n; i++ {
		for j := i; j > 0 && drawn[perm[j]].PostTime < drawn[perm[j-1]].PostTime; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}

// GenerateDayCounts produces only the [slot][region] order-count matrix
// of one day at the given slot width (seconds), without materializing
// orders. Months of predictor training history stay cheap this way. The
// counts are Poisson-consistent with GenerateDay's intensities.
func (c *City) GenerateDayCounts(day int, slotSeconds float64, rng *rand.Rand) [][]int {
	grid := c.cfg.Grid
	n := grid.NumRegions()
	numSlots := int(DaySeconds / slotSeconds)
	counts := make([][]int, numSlots)
	for s := range counts {
		counts[s] = make([]int, n)
	}
	scale := c.dayScale(day)
	rates := make([]stats.PoissonRate, n)
	for minute := 0; minute < 24*60; minute++ {
		slot := int(float64(minute*60) / slotSeconds)
		if slot >= numSlots {
			slot = numSlots - 1
		}
		if minute%60 == 0 {
			c.hourRates(rates, scale, minute)
		}
		for r := 0; r < n; r++ {
			counts[slot][r] += rates[r].Draw(rng)
		}
	}
	return counts
}

// hourRates prepares every region's Poisson rate for the hour starting
// at minute of a day whose dayScale is scale. A minute's intensity is
// the same in every minute of its hour — minuteFrac comes from the
// hour's hourlyCurve entry and the period changes only on the hour — so
// one prepared rate per region draws the whole hour, bit for bit as
// Poisson at each minute's own intensity would.
func (c *City) hourRates(rates []stats.PoissonRate, scale float64, minute int) {
	mscale, w := c.minuteIntensity(scale, minute)
	for r := range rates {
		rates[r] = stats.NewPoissonRate(mscale * w[r])
	}
}

// ExpectedDayCounts returns the noiseless intensity aggregated to the
// given slot width: the "real demand" oracle the paper's -R variants and
// the UPPER bound consume.
func (c *City) ExpectedDayCounts(day int, slotSeconds float64) [][]float64 {
	grid := c.cfg.Grid
	n := grid.NumRegions()
	numSlots := int(DaySeconds / slotSeconds)
	counts := make([][]float64, numSlots)
	for s := range counts {
		counts[s] = make([]float64, n)
	}
	scale := c.dayScale(day)
	for minute := 0; minute < 24*60; minute++ {
		slot := int(float64(minute*60) / slotSeconds)
		if slot >= numSlots {
			slot = numSlots - 1
		}
		mscale, w := c.minuteIntensity(scale, minute)
		for r := 0; r < n; r++ {
			counts[slot][r] += mscale * w[r]
		}
	}
	return counts
}

// InitialDrivers samples n starting driver positions from the pickup
// locations of a reference trace, the paper's initialization protocol
// (Section 6.2). With an empty trace it falls back to hotspot-weighted
// random placement.
func (c *City) InitialDrivers(n int, orders []trace.Order, rng *rand.Rand) []geo.Point {
	pts := make([]geo.Point, n)
	if len(orders) > 0 {
		for i := range pts {
			pts[i] = orders[rng.Intn(len(orders))].Pickup
		}
		return pts
	}
	w := c.pickupW[Morning]
	for i := range pts {
		r := stats.Categorical(rng, w)
		pts[i] = randomPointIn(rng, c.cfg.Grid, r)
	}
	return pts
}

// PerMinuteCounts returns per-minute order counts for one region over a
// window of the day, the sampling unit of the chi-square tests in
// Appendix B (one sample per minute across many days).
func (c *City) PerMinuteCounts(day, startMinute, minutes, region int, rng *rand.Rand) []int {
	out := make([]int, minutes)
	for i := 0; i < minutes; i++ {
		out[i] = stats.Poisson(rng, c.Intensity(day, startMinute+i, region))
	}
	return out
}
