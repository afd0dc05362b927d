package queueing

// RegionState is the demand-supply snapshot of one region at the start of
// a batch, in the units of Algorithm 1 lines 3-6.
type RegionState struct {
	Waiting          int // |R_k|: waiting riders
	Available        int // |D_k|: available drivers
	PredictedRiders  int // |^R_k|: predicted upcoming riders in the window
	PredictedDrivers int // |^D_k|: expected rejoining drivers in the window
}

// Analyzer evaluates and caches per-region expected idle times for one
// batch. The dispatch loop mutates driver supply as it commits pairs
// (Algorithm 2 line 11 bumps mu of the destination region), so the cache
// invalidates per region on update.
//
// A region's committed-mu bump and cached ET count only while their
// stamp equals the analyzer's generation: a new batch (Reset) bumps the
// generation instead of clearing every region, and a region's bump is
// zero and its ET unknown until the batch touches it.
type Analyzer struct {
	model   *Model
	tc      float64 // scheduling window length in seconds
	states  []RegionState
	regions []regionCache
	gen     uint64 // the current batch's stamp; never 0
}

// regionCache is one region's per-batch mutable state.
type regionCache struct {
	muBump  int     // extra rejoining drivers committed this batch
	bumpGen uint64  // muBump counts when equal to Analyzer.gen
	et      float64 // memoized ET under the current rates
	etGen   uint64  // et is valid when equal to Analyzer.gen
}

// NewAnalyzer builds an analyzer over numRegions regions for a scheduling
// window of tc seconds.
func NewAnalyzer(model *Model, numRegions int, tc float64) *Analyzer {
	return &Analyzer{
		model:   model,
		tc:      tc,
		states:  make([]RegionState, numRegions),
		regions: make([]regionCache, numRegions),
		gen:     1,
	}
}

// NumRegions returns the number of regions tracked.
func (a *Analyzer) NumRegions() int { return len(a.states) }

// Reset starts a new batch: region k's snapshot becomes (waiting[k],
// available[k], predictedRiders[k], predictedDrivers[k]) — a batch
// context's per-region counts, read in place — and every committed-mu
// bump and cached idle time is dropped. Each slice must cover
// NumRegions regions.
func (a *Analyzer) Reset(waiting, available, predictedRiders, predictedDrivers []int) {
	n := len(a.states)
	waiting, available = waiting[:n], available[:n]
	predictedRiders, predictedDrivers = predictedRiders[:n], predictedDrivers[:n]
	for k := range a.states {
		a.states[k] = RegionState{
			Waiting:          waiting[k],
			Available:        available[k],
			PredictedRiders:  predictedRiders[k],
			PredictedDrivers: predictedDrivers[k],
		}
	}
	a.gen++
}

// bump returns a region's committed-mu bump in the current batch.
func (a *Analyzer) bump(region int) int {
	if c := &a.regions[region]; c.bumpGen == a.gen {
		return c.muBump
	}
	return 0
}

// setBump records a region's committed-mu bump and drops its cached ET.
func (a *Analyzer) setBump(region, bump int) {
	a.regions[region] = regionCache{muBump: bump, bumpGen: a.gen}
}

// Rates returns the effective (lambda, mu) for a region, including any
// mu bumps committed during the current batch.
func (a *Analyzer) Rates(region int) (lambda, mu float64) {
	s := a.states[region]
	lambda, mu = Rates(s.Waiting, s.Available,
		s.PredictedRiders, s.PredictedDrivers+a.bump(region), a.tc)
	return lambda, mu
}

// congestionCap returns K for a region: the number of drivers that could
// congest there during the window (available now plus all expected or
// committed arrivals).
func (a *Analyzer) congestionCap(region int) int {
	s := a.states[region]
	k := s.Available + s.PredictedDrivers + a.bump(region)
	if k < 0 {
		k = 0
	}
	return k
}

// ExpectedIdleTime returns the memoized ET for a region under its current
// effective rates.
func (a *Analyzer) ExpectedIdleTime(region int) float64 {
	c := &a.regions[region]
	if c.etGen == a.gen {
		return c.et
	}
	lambda, mu := a.Rates(region)
	c.et = a.model.ExpectedIdleTime(lambda, mu, a.congestionCap(region))
	c.etGen = a.gen
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
	a.setBump(destRegion, a.bump(destRegion)+1)
}

// UncommitDestination reverses CommitDestination, used by the local
// search when it swaps a driver's assigned rider (Algorithm 3 line 7).
func (a *Analyzer) UncommitDestination(destRegion int) {
	a.setBump(destRegion, max(a.bump(destRegion)-1, 0))
}
