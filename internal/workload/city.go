package workload

import (
	"math"
	"math/rand"
	"sync"

	"mrvd/internal/geo"
	"mrvd/internal/stats"
)

// DaySeconds is the length of one simulated day.
const DaySeconds = 24 * 3600

// Period partitions the day into coarse demand regimes that shift where
// trips start and end (residential mornings, business evenings).
type Period int

// The four demand periods of a day.
const (
	Night   Period = iota // 22:00-06:00
	Morning               // 06:00-11:00
	Midday                // 11:00-16:00
	Evening               // 16:00-22:00
	numPeriods
)

// PeriodOf maps a second-of-day to its period.
func PeriodOf(sec float64) Period {
	h := math.Mod(sec, DaySeconds) / 3600
	switch {
	case h >= 6 && h < 11:
		return Morning
	case h >= 11 && h < 16:
		return Midday
	case h >= 16 && h < 22:
		return Evening
	default:
		return Night
	}
}

// hotspot is one center of gravity for trip activity.
type hotspot struct {
	Center geo.Point
	// SigmaMeters is the spatial spread of the hotspot's influence.
	SigmaMeters float64
	// PickupWeight and DropoffWeight give the hotspot's pull per period.
	PickupWeight  [numPeriods]float64
	DropoffWeight [numPeriods]float64
}

// defaultHotspots sketches an NYC-like demand geography: a dense
// "downtown/midtown" business core, two residential clusters, and an
// airport-like generator at the periphery.
func defaultHotspots() []hotspot {
	return []hotspot{
		{ // Lower Manhattan business core: sinks in the morning, sources in the evening.
			Center:        geo.Point{Lng: -73.99, Lat: 40.72},
			SigmaMeters:   3000,
			PickupWeight:  [numPeriods]float64{Night: 0.6, Morning: 0.7, Midday: 1.3, Evening: 1.8},
			DropoffWeight: [numPeriods]float64{Night: 0.5, Morning: 1.9, Midday: 1.2, Evening: 0.7},
		},
		{ // Midtown: strong both ways at business hours.
			Center:        geo.Point{Lng: -73.97, Lat: 40.76},
			SigmaMeters:   2600,
			PickupWeight:  [numPeriods]float64{Night: 0.8, Morning: 1.0, Midday: 1.5, Evening: 1.9},
			DropoffWeight: [numPeriods]float64{Night: 0.8, Morning: 1.7, Midday: 1.5, Evening: 1.1},
		},
		{ // Residential west (Upper West Side-like): sources in the morning.
			Center:        geo.Point{Lng: -73.96, Lat: 40.80},
			SigmaMeters:   2200,
			PickupWeight:  [numPeriods]float64{Night: 0.4, Morning: 1.8, Midday: 0.7, Evening: 0.6},
			DropoffWeight: [numPeriods]float64{Night: 1.0, Morning: 0.4, Midday: 0.7, Evening: 1.6},
		},
		{ // Residential east (Brooklyn-like): sources in the morning, sinks at night.
			Center:        geo.Point{Lng: -73.94, Lat: 40.68},
			SigmaMeters:   3200,
			PickupWeight:  [numPeriods]float64{Night: 0.5, Morning: 1.6, Midday: 0.6, Evening: 0.8},
			DropoffWeight: [numPeriods]float64{Night: 1.2, Morning: 0.5, Midday: 0.6, Evening: 1.7},
		},
		{ // Airport-like generator at the SE periphery: steady trickle.
			Center:        geo.Point{Lng: -73.79, Lat: 40.65},
			SigmaMeters:   1800,
			PickupWeight:  [numPeriods]float64{Night: 0.5, Morning: 0.6, Midday: 0.7, Evening: 0.7},
			DropoffWeight: [numPeriods]float64{Night: 0.5, Morning: 0.5, Midday: 0.6, Evening: 0.6},
		},
	}
}

// hourlyCurve is the relative order intensity per hour of day, shaped
// after the familiar NYC taxi diurnal profile: a deep 4-5 AM trough, an
// 8 AM commute peak, sustained midday demand, and the tallest peak around
// 18-19 when office hours end.
var hourlyCurve = [24]float64{
	1.6, 1.1, 0.8, 0.55, 0.4, 0.5, // 0-5
	1.0, 2.2, 3.1, 2.8, 2.4, 2.3, // 6-11
	2.5, 2.5, 2.4, 2.6, 2.8, 3.2, // 12-17
	3.8, 4.0, 3.6, 3.2, 2.8, 2.2, // 18-23
}

// CityConfig parameterizes the synthetic city.
type CityConfig struct {
	// Grid is the spatial partition. Nil defaults to the paper's 16x16
	// NYC grid.
	Grid *geo.Grid
	// OrdersPerDay scales total daily demand. The paper's test day has
	// 282,255 orders; experiments default to a scaled-down city.
	OrdersPerDay int
	// BaseWaitSeconds is the base pickup waiting time tau; each order's
	// deadline is post time + tau + U[1,10] (Section 6.2).
	BaseWaitSeconds float64
	// Seed drives all randomness derived from this city (day factors,
	// weather); per-call RNGs handle the rest.
	Seed int64
}

func (c CityConfig) withDefaults() CityConfig {
	if c.Grid == nil {
		c.Grid = geo.NewNYCGrid()
	}
	if c.OrdersPerDay <= 0 {
		c.OrdersPerDay = 30000
	}
	if c.BaseWaitSeconds <= 0 {
		c.BaseWaitSeconds = 120
	}
	return c
}

// tripDecayMeters is the distance-decay scale of the destination
// kernel; most trips stay within a few kilometers.
const tripDecayMeters = 4000

// City precomputes the per-period spatial structure of a synthetic city
// and generates order traces from it.
type City struct {
	cfg CityConfig
	// pickupW[p][r]: normalized pickup weight of region r in period p.
	pickupW [numPeriods][]float64
	// destCDF[p][src]: cumulative destination distribution given source.
	destCDF [numPeriods][][]float64
	// destMarginal[p][r]: probability that a period-p trip ends in r,
	// i.e. sum_src pickupW[src] * P(r | src). Dropoffs are where drivers
	// rejoin (Appendix B), so this drives DropoffIntensity.
	destMarginal [numPeriods][]float64
	// curveNorm converts hourlyCurve into per-minute fractions of a day.
	minuteFrac []float64

	// metaMu guards metaCache; DayMeta derivation is deterministic but
	// costs an RNG construction, and Intensity sits on hot loops.
	metaMu    sync.RWMutex
	metaCache map[int]DayMeta
}

// NewCity builds a city from the configuration.
func NewCity(cfg CityConfig) *City {
	cfg = cfg.withDefaults()
	c := &City{cfg: cfg, metaCache: make(map[int]DayMeta)}
	n := cfg.Grid.NumRegions()

	centers := make([]geo.Point, n)
	for r := 0; r < n; r++ {
		centers[r] = cfg.Grid.Center(geo.RegionID(r))
	}
	// decay[src*n+dst] is the destination kernel's distance decay, the
	// same in every period.
	decay := make([]float64, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			decay[src*n+dst] = math.Exp(-geo.Equirect(centers[src], centers[dst]) / tripDecayMeters)
		}
	}
	hotspots := defaultHotspots()
	for p := Period(0); p < numPeriods; p++ {
		pw := make([]float64, n)
		dw := make([]float64, n)
		for r := 0; r < n; r++ {
			pw[r] = 0.0015 // small uniform floor so no region is ever fully dead
			dw[r] = 0.0015
			for _, h := range hotspots {
				d := geo.Equirect(centers[r], h.Center)
				g := math.Exp(-d * d / (2 * h.SigmaMeters * h.SigmaMeters))
				pw[r] += h.PickupWeight[p] * g
				dw[r] += h.DropoffWeight[p] * g
			}
		}
		normalize(pw)
		c.pickupW[p] = pw

		// Destination kernel: attractiveness x distance decay.
		cdf := make([][]float64, n)
		for src := 0; src < n; src++ {
			row := make([]float64, n)
			acc := 0.0
			for dst := 0; dst < n; dst++ {
				w := dw[dst] * decay[src*n+dst]
				if dst == src {
					w *= 0.25 // few same-region micro-trips in taxi data
				}
				acc += w
				row[dst] = acc
			}
			if acc > 0 {
				for dst := range row {
					row[dst] /= acc
				}
			}
			cdf[src] = row
		}
		c.destCDF[p] = cdf

		// Marginal destination distribution for the period.
		marg := make([]float64, n)
		for src := 0; src < n; src++ {
			prev := 0.0
			for dst := 0; dst < n; dst++ {
				pDst := cdf[src][dst] - prev
				prev = cdf[src][dst]
				marg[dst] += pw[src] * pDst
			}
		}
		c.destMarginal[p] = marg
	}

	// Normalize the hourly curve to per-minute fractions.
	total := 0.0
	for _, h := range hourlyCurve {
		total += h
	}
	c.minuteFrac = make([]float64, 24*60)
	for m := range c.minuteFrac {
		c.minuteFrac[m] = hourlyCurve[m/60] / (total * 60)
	}
	return c
}

func normalize(w []float64) {
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		return
	}
	for i := range w {
		w[i] /= total
	}
}

// Grid exposes the city's spatial partition.
func (c *City) Grid() *geo.Grid { return c.cfg.Grid }

// Intensity returns the expected number of orders posted in the given
// region during the one-minute slot starting at minute m of the given
// day, including the day's global factor.
func (c *City) Intensity(day, minute, region int) float64 {
	scale, w := c.minuteIntensity(c.dayScale(day), minute)
	return scale * w[region]
}

// dayScale is the day's leading factor of Intensity's product: the
// expected order total of the day.
func (c *City) dayScale(day int) float64 {
	return float64(c.cfg.OrdersPerDay) * c.DayMeta(day).Factor
}

// minuteIntensity splits Intensity at minute m of a day whose dayScale
// is scale into the minute's factor and its period's pickup weights:
// region r's intensity is mscale*w[r], the same left-to-right product
// bit for bit. Per-cell loops over a whole day call it once a minute
// and dayScale once a day.
func (c *City) minuteIntensity(scale float64, minute int) (mscale float64, w []float64) {
	return scale * c.minuteFrac[minute], c.pickupW[PeriodOf(float64(minute*60))]
}

// DropoffIntensity returns the expected number of trips *ending* in the
// region per minute — the arrival intensity of rejoining drivers, which
// Appendix B's chi-square tests sample. It ignores the trip-duration
// shift (a few minutes), which is below the tests' resolution.
func (c *City) DropoffIntensity(day, minute, region int) float64 {
	p := PeriodOf(float64(minute * 60))
	return float64(c.cfg.OrdersPerDay) * c.DayMeta(day).Factor *
		c.minuteFrac[minute] * c.destMarginal[p][region]
}

// PerMinuteDropoffCounts samples per-minute rejoining-driver counts for
// one region, the Table 8 / Figure 12 sampling unit.
func (c *City) PerMinuteDropoffCounts(day, startMinute, minutes, region int, rng *rand.Rand) []int {
	out := make([]int, minutes)
	for i := 0; i < minutes; i++ {
		out[i] = stats.Poisson(rng, c.DropoffIntensity(day, startMinute+i, region))
	}
	return out
}

// sampleDest draws a destination region for a trip from src in period p.
func (c *City) sampleDest(rng *rand.Rand, p Period, src int) int {
	row := c.destCDF[p][src]
	u := rng.Float64()
	lo, hi := 0, len(row)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// randomPointIn draws a uniform point inside a region's cell.
func randomPointIn(rng *rand.Rand, grid *geo.Grid, r int) geo.Point {
	box := grid.CellBox(geo.RegionID(r))
	return geo.Point{
		Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
		Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
	}
}
