package dispatch

import (
	"slices"

	"mrvd/internal/geo"
	"mrvd/internal/heapq"
	"mrvd/internal/queueing"
	"mrvd/internal/sim"
)

// batchAnalyzer is a dispatcher's one queueing analyzer, reset per batch
// to the region states of Algorithm 1 lines 3-6. The engine's estimate
// sweep and the dispatcher's Assign read the same unmutated snapshot, so
// they share one reset, keyed on the *sim.Context the engine allocates
// fresh every batch. Dispatchers are per-run, per-shard: no locking.
type batchAnalyzer struct {
	ctx   *sim.Context // the batch a holds unmutated, nil otherwise
	a     *queueing.Analyzer
	model *queueing.Model // what a was built with, with tc
	tc    float64
}

// buildAnalyzer snapshots a batch context into a fresh analyzer, for
// callers with no per-run instance to keep one on (a Repositioner is
// shared by every shard's engine).
func buildAnalyzer(model *queueing.Model, ctx *sim.Context) *queueing.Analyzer {
	return new(batchAnalyzer).working(model, ctx)
}

// snapshot returns the analyzer holding ctx's region states with no
// commitment applied — for readers that leave it that way.
func (b *batchAnalyzer) snapshot(model *queueing.Model, ctx *sim.Context) *queueing.Analyzer {
	if b.ctx == ctx {
		return b.a
	}
	n := ctx.Grid.NumRegions()
	if b.a == nil || b.model != model || b.tc != ctx.TC || b.a.NumRegions() != n {
		b.a, b.model, b.tc = queueing.NewAnalyzer(model, n, ctx.TC), model, ctx.TC
	}
	b.a.Reset((*contextRegions)(ctx))
	b.ctx = ctx
	return b.a
}

// contextRegions is a batch context as the analyzer's region source: a
// region's counts are read from the context in place, and its
// predictions computed, only when the analyzer first scores it.
type contextRegions sim.Context

func (c *contextRegions) Region(k int) queueing.RegionState {
	ctx, region := (*sim.Context)(c), geo.RegionID(k)
	return queueing.RegionState{
		Waiting:          ctx.WaitingPerRegion[k],
		Available:        ctx.AvailablePerRegion[k],
		PredictedRiders:  ctx.PredictedRiders(region),
		PredictedDrivers: ctx.PredictedDrivers(region),
	}
}

// working returns the same analyzer for a caller that will commit
// destinations into it (Assign): the snapshot is forgotten, so a later
// reader of the same batch gets a fresh reset, not the mutated state.
func (b *batchAnalyzer) working(model *queueing.Model, ctx *sim.Context) *queueing.Analyzer {
	a := b.snapshot(model, ctx)
	b.ctx = nil
	return a
}

// pairScore computes a pair's priority; smaller is better. It receives
// the destination region's current expected idle time.
type pairScore func(p sim.Pair, et float64) float64

// scoredItem is one heap entry with the region version it was scored at.
type scoredItem struct {
	score   float64
	pairIdx int32
	version int32
}

// scoredLess orders the greedy's heap by score, ties by pair index.
func scoredLess(a, b scoredItem) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.pairIdx < b.pairIdx // deterministic tie-break
}

// greedy is the scratch of the exact greedy shared by IRG and SHORT,
// owned by the dispatcher instance and reused across batches — the
// returned assignments included (the engine reads them before the next
// Assign). Its per-region and per-rider/driver arrays only grow; a batch
// resets just the cells its pairs name, so a batch with no pairs costs
// nothing here whatever the grid or the fleet.
type greedy struct {
	versions      []int32
	pairsByRegion [][]int32
	heap          []scoredItem
	usedR, usedD  []bool
	out           []sim.Assignment
}

// run executes the greedy:
// repeatedly take the minimum-score valid pair, commit it, and bump the
// destination region's mu (Algorithm 2 line 11).
//
// A committed driver changes its destination region's ET — and not
// monotonically: the paper's lambda > mu closed form (Eq. 10) sums the
// congested-driver side to infinity while the lambda <= mu forms
// truncate at K, so crossing the regime boundary can *lower* ET. Lazy
// rescoring therefore cannot rely on scores only growing. Instead, this
// follows the paper's own bookkeeping ("update mu(k) and the idle ratio
// of related pairs", Algorithm 2 line 11): each commit pushes fresh
// entries for every still-viable pair destined to the updated region,
// and entries whose region version is stale are discarded on pop. The
// heap thus always holds a current-score entry for every viable pair,
// so the popped current-version minimum is the true greedy choice.
func (g *greedy) run(ctx *sim.Context, a *queueing.Analyzer, score pairScore) []sim.Assignment {
	n := ctx.Grid.NumRegions()
	g.versions = slices.Grow(g.versions[:0], n)[:n]
	g.pairsByRegion = slices.Grow(g.pairsByRegion[:0], n)[:n]
	g.usedR = slices.Grow(g.usedR[:0], len(ctx.Riders))[:len(ctx.Riders)]
	g.usedD = slices.Grow(g.usedD[:0], len(ctx.Drivers))[:len(ctx.Drivers)]
	// Only the cells the pairs name are read below, so only they are
	// reset; the rest keep whatever an earlier batch left.
	for _, p := range ctx.Pairs {
		g.versions[p.DestRegion] = 0
		g.pairsByRegion[p.DestRegion] = g.pairsByRegion[p.DestRegion][:0]
		g.usedR[p.R] = false
		g.usedD[p.D] = false
	}
	// pairsByRegion indexes pairs by destination for the commit-time
	// rescoring sweep.
	for i, p := range ctx.Pairs {
		g.pairsByRegion[p.DestRegion] = append(g.pairsByRegion[p.DestRegion], int32(i))
	}

	h := g.heap[:0]
	for i, p := range ctx.Pairs {
		h = append(h, scoredItem{
			score:   score(p, a.ExpectedIdleTime(int(p.DestRegion))),
			pairIdx: int32(i),
			version: g.versions[p.DestRegion],
		})
	}
	heapq.Init(h, scoredLess)

	out := g.out[:0]
	for len(h) > 0 {
		it := heapq.Pop(&h, scoredLess)
		p := ctx.Pairs[it.pairIdx]
		if g.usedR[p.R] || g.usedD[p.D] {
			continue
		}
		if it.version != g.versions[p.DestRegion] {
			// Superseded: a fresh entry was pushed when the region was
			// last committed to.
			continue
		}
		g.usedR[p.R] = true
		g.usedD[p.D] = true
		out = append(out, sim.Assignment{R: p.R, D: p.D})
		region := int(p.DestRegion)
		a.CommitDestination(region)
		g.versions[p.DestRegion]++
		// Rescore the region's remaining pairs under the new ET.
		et := a.ExpectedIdleTime(region)
		for _, pi := range g.pairsByRegion[p.DestRegion] {
			rp := ctx.Pairs[pi]
			if g.usedR[rp.R] || g.usedD[rp.D] {
				continue
			}
			heapq.Push(&h, scoredItem{
				score:   score(rp, et),
				pairIdx: pi,
				version: g.versions[p.DestRegion],
			}, scoredLess)
		}
	}
	g.heap, g.out = h, out
	return out
}
