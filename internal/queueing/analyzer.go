package queueing

// RegionState is the demand-supply snapshot of one region at the start of
// a batch, in the units of Algorithm 1 lines 3-6.
type RegionState struct {
	Waiting          int // |R_k|: waiting riders
	Available        int // |D_k|: available drivers
	PredictedRiders  int // |^R_k|: predicted upcoming riders in the window
	PredictedDrivers int // |^D_k|: expected rejoining drivers in the window
}

// Regions is a batch's per-region demand-supply snapshot, read in
// place: Region(k) returns region k's state at the start of the batch.
// An Analyzer reads a region at most once per batch, on the first query
// that touches it, so a source whose values cost work to compute pays
// only for the regions the batch scores.
type Regions interface {
	Region(k int) RegionState
}

// Analyzer evaluates and caches per-region expected idle times for one
// batch. The dispatch loop mutates driver supply as it commits pairs
// (Algorithm 2 line 11 bumps mu of the destination region), so the cache
// invalidates per region on update.
//
// A region's snapshot, committed-mu bump and cached ET count only while
// its stamp equals the analyzer's generation: a new batch (Reset) bumps
// the generation instead of touching every region, and the first query
// of a region in a batch reads its state from the batch's Regions, with
// no bump and no ET.
type Analyzer struct {
	model   *Model
	tc      float64 // scheduling window length in seconds
	src     Regions
	regions []regionCache
	gen     uint64 // the current batch's stamp; 0 until Reset, when every region is empty
}

// regionCache is one region's per-batch state, valid when gen equals
// Analyzer.gen.
type regionCache struct {
	state  RegionState
	muBump int     // extra rejoining drivers committed this batch
	et     float64 // memoized ET under the current rates, when etOK
	etOK   bool
	gen    uint64
}

// NewAnalyzer builds an analyzer over numRegions regions for a scheduling
// window of tc seconds.
func NewAnalyzer(model *Model, numRegions int, tc float64) *Analyzer {
	return &Analyzer{
		model:   model,
		tc:      tc,
		regions: make([]regionCache, numRegions),
	}
}

// NumRegions returns the number of regions tracked.
func (a *Analyzer) NumRegions() int { return len(a.regions) }

// Reset starts a new batch over src, which must answer for NumRegions
// regions: every committed-mu bump and cached idle time is dropped, and
// each region's snapshot is read from src on the batch's first query of
// that region. src is read in place — nothing is copied — so it must
// hold the batch's start-of-batch values for as long as the batch's
// queries run.
func (a *Analyzer) Reset(src Regions) {
	a.src = src
	a.gen++
}

// region returns a region's state in the current batch, reading its
// snapshot on first use.
func (a *Analyzer) region(k int) *regionCache {
	c := &a.regions[k]
	if c.gen != a.gen {
		*c = regionCache{state: a.src.Region(k), gen: a.gen}
	}
	return c
}

// Rates returns the effective (lambda, mu) for a region, including any
// mu bumps committed during the current batch.
func (a *Analyzer) Rates(region int) (lambda, mu float64) {
	c := a.region(region)
	s := c.state
	lambda, mu = Rates(s.Waiting, s.Available,
		s.PredictedRiders, s.PredictedDrivers+c.muBump, a.tc)
	return lambda, mu
}

// congestionCap returns K for a region: the number of drivers that could
// congest there during the window (available now plus all expected or
// committed arrivals).
func (a *Analyzer) congestionCap(region int) int {
	c := a.region(region)
	k := c.state.Available + c.state.PredictedDrivers + c.muBump
	if k < 0 {
		k = 0
	}
	return k
}

// ExpectedIdleTime returns the memoized ET for a region under its current
// effective rates.
func (a *Analyzer) ExpectedIdleTime(region int) float64 {
	c := a.region(region)
	if c.etOK {
		return c.et
	}
	lambda, mu := a.Rates(region)
	c.et, c.etOK = a.model.ExpectedIdleTime(lambda, mu, a.congestionCap(region)), true
	return c.et
}

// IdleRatio scores a candidate pair whose rider travels for cost seconds
// and ends in destRegion (Eq. 17).
func (a *Analyzer) IdleRatio(cost float64, destRegion int) float64 {
	return IdleRatio(cost, a.ExpectedIdleTime(destRegion))
}

// CommitDestination records that a selected rider will deliver a driver
// into destRegion, raising its mu (Algorithm 2 line 11) and invalidating
// the cached ET.
func (a *Analyzer) CommitDestination(destRegion int) {
	c := a.region(destRegion)
	c.muBump++
	c.etOK = false
}

// UncommitDestination reverses CommitDestination, used by the local
// search when it swaps a driver's assigned rider (Algorithm 3 line 7).
func (a *Analyzer) UncommitDestination(destRegion int) {
	c := a.region(destRegion)
	c.muBump = max(c.muBump-1, 0)
	c.etOK = false
}
