package sim

import (
	"sort"

	"mrvd/internal/geo"
)

// forecast is the engine's Forecast: each region's window predictions
// for the batch being dispatched, computed on the first read of the
// region in the batch and memoized until the next batch is built.
// |^D_k| counts region k's scheduled rejoins in [now, now+tc); |^R_k|
// is Config.PredictRiders'.
type forecast struct {
	now, tc       float64
	predictRiders func(now, tc float64, region geo.RegionID) int
	// rejoins[k] holds the sorted completion times of busy drivers whose
	// destination is region k. Times before the batch are dropped from a
	// list when it is counted, and it is counted before every change, so
	// a list no one reads still holds only the drivers heading there.
	rejoins [][]float64
	memo    []regionForecast
	batch   uint64 // the batch being dispatched; memo cells of older batches are unknown
}

// regionForecast is one region's memo: riders is valid when ridersAt
// equals forecast.batch, drivers when driversAt does.
type regionForecast struct {
	riders, drivers     int
	ridersAt, driversAt uint64
}

func newForecast(cfg Config) forecast {
	n := cfg.Grid.NumRegions()
	return forecast{
		tc:            cfg.TC,
		predictRiders: cfg.PredictRiders,
		rejoins:       make([][]float64, n),
		memo:          make([]regionForecast, n),
	}
}

// begin starts the batch at now: every memoized value is forgotten.
func (f *forecast) begin(now float64) {
	f.now = now
	f.batch++
}

// Riders implements Forecast.
func (f *forecast) Riders(k geo.RegionID) int {
	if f.predictRiders == nil {
		return 0
	}
	m := &f.memo[k]
	if m.ridersAt != f.batch {
		m.riders, m.ridersAt = f.predictRiders(f.now, f.tc, k), f.batch
	}
	return m.riders
}

// Drivers implements Forecast.
func (f *forecast) Drivers(k geo.RegionID) int {
	m := &f.memo[k]
	if m.driversAt != f.batch {
		m.drivers, m.driversAt = f.countRejoins(k), f.batch
	}
	return m.drivers
}

// countRejoins counts region k's rejoins within [now, now+tc), dropping
// those already in the past. Most lists are empty or wholly inside the
// window, which needs no search.
func (f *forecast) countRejoins(k geo.RegionID) int {
	times := f.rejoins[k]
	n := len(times)
	if n == 0 || times[0] >= f.now && times[n-1] < f.now+f.tc {
		return n
	}
	if i := sort.SearchFloat64s(times, f.now); i > 0 {
		times = times[:copy(times, times[i:])] // in place: the array is reused
		f.rejoins[k] = times
	}
	return sort.SearchFloat64s(times, f.now+f.tc)
}

// addRejoin schedules a rejoin in region at time at. The region's count
// for the batch is taken first, so every read in the batch sees the
// batch's start.
func (f *forecast) addRejoin(region geo.RegionID, at float64) {
	f.Drivers(region)
	times := f.rejoins[region]
	i := sort.SearchFloat64s(times, at)
	times = append(times, 0)
	copy(times[i+1:], times[i:])
	times[i] = at
	f.rejoins[region] = times
}

// dropRejoin unschedules one rejoin — used when pooling moves a driver's
// plan end (insertion extends it, cancellation pulls it in). Times are
// stored exactly as added, so the lookup is an exact float match.
func (f *forecast) dropRejoin(region geo.RegionID, at float64) {
	f.Drivers(region)
	times := f.rejoins[region]
	i := sort.SearchFloat64s(times, at)
	if i < len(times) && times[i] == at {
		f.rejoins[region] = append(times[:i], times[i+1:]...)
	}
}
