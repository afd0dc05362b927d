package dispatch

import (
	"cmp"
	"slices"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/sim"
)

// LS is the local search of Algorithm 3: it seeds with another
// dispatcher's assignment (IRG by default, per the paper) and repeatedly
// updates a driver's assigned rider to a valid rider with a smaller idle
// ratio, until a fixed point (convergence is Lemma 5.1).
//
// The paper's neighbourhood "r' in R_j" ranges over all valid riders of
// driver d_j, including riders currently assigned to other drivers.
// Swapping to an assigned rider only helps when the displaced pieces can
// be re-served, so this implementation realizes that neighbourhood as
// three move types per sweep:
//
//  1. direct fill — an unassigned rider with an idle valid driver is
//     assigned (lowest idle ratio first);
//  2. improving swap — a driver trades its rider for an unassigned valid
//     rider with a strictly smaller idle ratio;
//  3. augmenting chain — an unassigned rider u takes a busy driver d
//     whose rider r moves to an idle driver that can still reach r
//     (a length-3 alternating path), growing the served set.
type LS struct {
	// Model is the queueing model; nil defaults to queueing.NewDefault().
	Model *queueing.Model
	// Seed produces the initial assignment; nil defaults to &IRG{Model}.
	Seed sim.Dispatcher

	an batchAnalyzer
	st lsState // reused across batches
}

// Name implements sim.Dispatcher.
func (l *LS) Name() string { return "LS" }

func (l *LS) init() {
	if l.Model == nil {
		l.Model = queueing.NewDefault()
	}
	if l.Seed == nil {
		l.Seed = &IRG{Model: l.Model}
	}
}

// lsMaxIterations bounds the sweep count (the paper's L_max).
const lsMaxIterations = 16

// lsState carries the mutable search state across move types. Its
// slices are the dispatcher's scratch, reused across batches — the
// returned assignments included (the engine reads them before the next
// Assign). The search reads and writes only the drivers the batch's
// pairs and seed name, so its per-driver state is kept for those alone:
// a batch costs what its pairs touch, not the fleet.
type lsState struct {
	ctx *sim.Context
	a   *queueing.Analyzer
	// drivers lists the driver slots the batch names, ascending; at maps
	// a named slot to its index there and is -1 at every other slot.
	drivers       []int32
	at            []int32
	assignedRider []int32      // driver slot -> rider or -1; current at named slots only
	riderDriver   []int32      // rider -> driver or -1
	pairsByDriver [][]sim.Pair // indexed like drivers
	pairsByRider  [][]sim.Pair
	byDriver      pairGroups
	byRider       pairGroups
	cands         []lsCand
	out           []sim.Assignment
}

// lsCand is one direct-fill candidate.
type lsCand struct {
	ir   float64
	r, d int32
}

// pairGroups is the scratch behind one grouping of a batch's pairs.
type pairGroups struct {
	groups [][]sim.Pair
	flat   []sim.Pair
	size   []int32
}

// group returns pairs grouped by key(p) in [0, n), each group in pairs
// order, from one stable counting-sort pass: every group is a run of
// one flat array, capped at its size so filling it by append stays in
// place.
func (g *pairGroups) group(pairs []sim.Pair, n int, key func(sim.Pair) int32) [][]sim.Pair {
	g.size = slices.Grow(g.size[:0], n)[:n]
	clear(g.size)
	for _, p := range pairs {
		g.size[key(p)]++
	}
	g.flat = slices.Grow(g.flat[:0], len(pairs))[:len(pairs)]
	g.groups = slices.Grow(g.groups[:0], n)[:n]
	lo := 0
	for k, size := range g.size {
		hi := lo + int(size)
		g.groups[k] = g.flat[lo:lo:hi]
		lo = hi
	}
	for _, p := range pairs {
		k := key(p)
		g.groups[k] = append(g.groups[k], p)
	}
	return g.groups
}

func (s *lsState) assign(r, d int32) {
	s.assignedRider[d] = r
	s.riderDriver[r] = d
	s.a.CommitDestination(int(s.ctx.Riders[r].DestRegion))
}

func (s *lsState) release(d int32) int32 {
	r := s.assignedRider[d]
	if r == -1 {
		return -1
	}
	s.assignedRider[d] = -1
	s.riderDriver[r] = -1
	s.a.UncommitDestination(int(s.ctx.Riders[r].DestRegion))
	return r
}

// Assign implements sim.Dispatcher.
func (l *LS) Assign(ctx *sim.Context) []sim.Assignment {
	l.init()
	seed := l.Seed.Assign(ctx)

	s := &l.st
	s.ctx, s.a = ctx, l.an.working(l.Model, ctx)
	s.nameDrivers(ctx, seed)
	nr := len(ctx.Riders)
	s.riderDriver = slices.Grow(s.riderDriver[:0], nr)[:nr]
	for i := range s.riderDriver {
		s.riderDriver[i] = -1
	}
	s.pairsByDriver = s.byDriver.group(ctx.Pairs, len(s.drivers), func(p sim.Pair) int32 { return s.at[p.D] })
	s.pairsByRider = s.byRider.group(ctx.Pairs, nr, func(p sim.Pair) int32 { return p.R })
	for _, as := range seed {
		s.assign(as.R, as.D)
	}

	for iter := 0; iter < lsMaxIterations; iter++ {
		changed := s.directFills()
		changed = s.improvingSwaps() || changed
		changed = s.augmentingChains() || changed
		if !changed {
			break
		}
	}

	out := s.out[:0]
	for _, d := range s.drivers {
		if r := s.assignedRider[d]; r != -1 {
			out = append(out, sim.Assignment{R: r, D: d})
		}
	}
	s.out = out
	return out
}

// nameDrivers lists the driver slots the batch's pairs and its seed
// assignment name, ascending, and marks each unassigned. The cells of
// the last batch's list are reset first: every other slot already
// holds -1 in at, and no one reads its assignedRider.
func (s *lsState) nameDrivers(ctx *sim.Context, seed []sim.Assignment) {
	for _, d := range s.drivers {
		s.at[d] = -1
	}
	for nd := len(ctx.Drivers); len(s.at) < nd; {
		s.at = append(s.at, -1)
		s.assignedRider = append(s.assignedRider, -1)
	}
	drivers := s.drivers[:0]
	for _, p := range ctx.Pairs {
		if s.at[p.D] == -1 {
			s.at[p.D] = 0
			drivers = append(drivers, p.D)
		}
	}
	for _, as := range seed {
		if s.at[as.D] == -1 {
			s.at[as.D] = 0
			drivers = append(drivers, as.D)
		}
	}
	slices.Sort(drivers)
	for i, d := range drivers {
		s.at[d] = int32(i)
		s.assignedRider[d] = -1
	}
	s.drivers = drivers
}

// directFills assigns unassigned riders to idle valid drivers, lowest
// idle ratio first.
func (s *lsState) directFills() bool {
	cands := s.cands[:0]
	for r := range s.ctx.Riders {
		if s.riderDriver[r] != -1 {
			continue
		}
		for _, p := range s.pairsByRider[r] {
			if s.assignedRider[p.D] != -1 {
				continue
			}
			ir := s.a.IdleRatio(p.TripCost, int(p.DestRegion))
			cands = append(cands, lsCand{ir: ir, r: p.R, d: p.D})
		}
	}
	s.cands = cands
	slices.SortFunc(cands, func(a, b lsCand) int {
		return cmp.Or(cmp.Compare(a.ir, b.ir), cmp.Compare(a.r, b.r), cmp.Compare(a.d, b.d))
	})
	changed := false
	for _, c := range cands {
		if s.riderDriver[c.r] != -1 || s.assignedRider[c.d] != -1 {
			continue
		}
		s.assign(c.r, c.d)
		changed = true
	}
	return changed
}

// improvingSwaps trades a driver's rider for an unassigned valid rider
// with a strictly smaller idle ratio, both evaluated with the driver's
// current commitment released.
func (s *lsState) improvingSwaps() bool {
	changed := false
	for i, d := range s.drivers {
		cur := s.assignedRider[d]
		if cur == -1 {
			continue
		}
		curDest := int(s.ctx.Riders[cur].DestRegion)
		s.a.UncommitDestination(curDest)
		curIR := s.a.IdleRatio(s.ctx.Riders[cur].TripCost, curDest)
		bestR := int32(-1)
		bestIR := curIR
		for _, p := range s.pairsByDriver[i] {
			if p.R == cur || s.riderDriver[p.R] != -1 {
				continue
			}
			if ir := s.a.IdleRatio(p.TripCost, int(p.DestRegion)); ir < bestIR {
				bestIR = ir
				bestR = p.R
			}
		}
		s.a.CommitDestination(curDest) // restore before mutating via assign/release
		if bestR != -1 {
			s.release(d)
			s.assign(bestR, d)
			changed = true
		}
	}
	return changed
}

// augmentingChains serves an unassigned rider u by taking a busy driver
// d and moving d's rider r to an idle driver that can still reach r —
// the length-3 alternating path that grows the matching.
func (s *lsState) augmentingChains() bool {
	changed := false
	for u := range s.ctx.Riders {
		if s.riderDriver[u] != -1 {
			continue
		}
	chain:
		for _, pu := range s.pairsByRider[u] {
			d := pu.D
			r := s.assignedRider[d]
			if r == -1 {
				// Idle driver: directFills missed it only if it raced a
				// previous chain this sweep; take it directly.
				s.assign(int32(u), d)
				changed = true
				break chain
			}
			for _, pr := range s.pairsByRider[r] {
				if pr.D == d || s.assignedRider[pr.D] != -1 {
					continue
				}
				// Move r to the idle driver, free d for u.
				s.release(d)
				s.assign(r, pr.D)
				s.assign(int32(u), d)
				changed = true
				break chain
			}
		}
	}
	return changed
}

// EstimateIdle implements sim.IdleEstimating with the state-conditional
// T(n) of Section 4.2 (see IRG.EstimateIdle).
func (l *LS) EstimateIdle(ctx *sim.Context, region geo.RegionID) float64 {
	l.init()
	return conditionalIdleEstimate(l.an.snapshot(l.Model, ctx), ctx, region)
}
