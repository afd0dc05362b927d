package roadnet

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mrvd/internal/geo"
)

// BatchCoster extends Coster with many-to-many pricing: one call prices
// every (source, target) pair and returns a dense cost matrix. The batch
// dispatcher's hot path is exactly this shape — each batch needs the
// pickup cost of every candidate driver to every waiting rider — and a
// batch-aware implementation can amortize work per-pair queries repeat
// (snapping, shortest-path trees, lock traffic).
//
// The contract is strict equivalence: Costs(S, T)[i][j] must equal
// Cost(S[i], T[j]) bitwise for every pair, so swapping the per-pair path
// for the batch path never changes dispatch results, only their cost.
//
// Implementing it is the pricing policy: the engine hands a BatchCoster
// the full dense matrix of every batch, and prices a plain Coster only
// in the cells it reads. Implement it when one Costs call amortizes
// per-source work across targets (a shortest-path tree per unique
// source) or per-call overhead across cells (one RPC to a routing
// service); a closed form, O(1) per cell, has nothing to amortize and
// stays a plain Coster — as GreatCircleCoster does.
type BatchCoster interface {
	Coster
	// Costs returns the len(sources) x len(targets) travel-time matrix
	// in seconds, +Inf for unreachable pairs. The returned rows are
	// freshly allocated and owned by the caller.
	Costs(sources, targets []geo.Point) [][]float64
}

// newCostMatrix allocates a dense rows x cols matrix backed by one slab.
func newCostMatrix(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	cells := make([]float64, rows*cols)
	for i := range out {
		out[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// costerCounters instruments a GraphCoster's query work.
type costerCounters struct {
	trees     atomic.Int64
	partials  atomic.Int64
	resumed   atomic.Int64
	settled   atomic.Int64
	cacheHits atomic.Int64
	evictions atomic.Int64
}

// CosterStats snapshots a GraphCoster's cumulative query counters.
type CosterStats struct {
	// Trees counts Dijkstra runs issued by single-pair Cost queries,
	// each of which leaves its source with a complete tree.
	Trees int64
	// PartialTrees counts Dijkstra runs issued by batched Costs
	// queries, each of which stops once the batch's target nodes are
	// settled.
	PartialTrees int64
	// Resumed counts the runs, of either kind, that continued a cached
	// tree from its frontier instead of starting at the source.
	Resumed int64
	// SettledNodes totals nodes finalized across all Dijkstra runs —
	// the unit of shortest-path work the per-pair and batch query paths
	// share, and what TestBatchCostsFewerComputations compares. A
	// complete tree settles every reachable node once, however many
	// runs built it.
	SettledNodes int64
	// CacheHits counts queries answered from the tree cache.
	CacheHits int64
	// Evictions counts tree-cache entries displaced by the clock
	// (second-chance) sweep to make room for a new source's tree.
	Evictions int64
}

// Stats snapshots the coster's cumulative counters.
func (c *GraphCoster) Stats() CosterStats {
	return CosterStats{
		Trees:        c.stats.trees.Load(),
		PartialTrees: c.stats.partials.Load(),
		Resumed:      c.stats.resumed.Load(),
		SettledNodes: c.stats.settled.Load(),
		CacheHits:    c.stats.cacheHits.Load(),
		Evictions:    c.stats.evictions.Load(),
	}
}

// ResetStats zeroes the counters (benchmark bookkeeping).
func (c *GraphCoster) ResetStats() {
	c.stats.trees.Store(0)
	c.stats.partials.Store(0)
	c.stats.resumed.Store(0)
	c.stats.settled.Store(0)
	c.stats.cacheHits.Store(0)
	c.stats.evictions.Store(0)
}

// Costs implements BatchCoster. Every endpoint is snapped exactly once,
// snapped source nodes are deduplicated, and one Dijkstra run per
// unique source the cache does not cover is fanned over a worker pool.
// The query path acquires the coster's mutex twice — once to consult
// the tree cache up front, once to publish new trees — rather than once
// per pair, so workers never contend on a lock.
//
// Each run extends its source's tree only until the batch's target
// nodes are settled, which on clustered city workloads is a small
// fraction of the full tree (Stats reports the work in SettledNodes).
// A first-seen source starts from nothing; a cached tree whose horizon
// falls short of this batch's targets is continued from its frontier,
// on a copy, so the nodes it already settled are never settled again
// and callers still reading the published tree are not disturbed.
// Stopping early never changes settled values, so the matrix is
// bitwise-identical to per-pair queries.
func (c *GraphCoster) Costs(sources, targets []geo.Point) [][]float64 {
	nT := len(targets)
	out := newCostMatrix(len(sources), nT)
	if len(sources) == 0 || nT == 0 {
		return out
	}

	// Snap all endpoints once.
	srcNode := make([]NodeID, len(sources))
	srcApproach := make([]float64, len(sources))
	for i, p := range sources {
		srcNode[i], srcApproach[i] = c.snap.nearest(p)
	}
	tgtNode := make([]NodeID, nT)
	tgtApproach := make([]float64, nT)
	needed := make([]bool, c.g.NumNodes())
	var tgtUniq []NodeID
	for j, p := range targets {
		tgtNode[j], tgtApproach[j] = c.snap.nearest(p)
		if n := tgtNode[j]; n != InvalidNode && !needed[n] {
			needed[n] = true
			tgtUniq = append(tgtUniq, n)
		}
	}

	// Deduplicate source nodes in first-appearance order: co-located
	// drivers share one Dijkstra. rowOf maps a node to its index in
	// uniq, plus one.
	rowOf := make([]int32, c.g.NumNodes())
	var uniq []NodeID
	for _, n := range srcNode {
		if n != InvalidNode && rowOf[n] == 0 {
			uniq = append(uniq, n)
			rowOf[n] = int32(len(uniq))
		}
	}

	// First lock acquisition: serve sources from cached trees whose
	// horizon reaches every unique target node of this batch — only
	// then are their values final for every cell the matrix will read.
	// The rest are queued with the tree to continue (none for a
	// first-seen source) and the number of targets it leaves uncovered.
	type run struct {
		u         int
		from      spTree
		uncovered int
	}
	trees := make([]spTree, len(uniq))
	var missing []run
	var resumed int64
	c.mu.Lock()
	for u, n := range uniq {
		t, ok := c.cache.get(n)
		uncovered := len(tgtUniq)
		if ok {
			uncovered = 0
			for _, tn := range tgtUniq {
				if !(t.dist[tn] <= t.horizon) {
					uncovered++
				}
			}
			if uncovered == 0 {
				trees[u] = t
				continue
			}
			resumed++
		}
		missing = append(missing, run{u: u, from: t, uncovered: uncovered})
	}
	c.mu.Unlock()
	c.stats.cacheHits.Add(int64(len(uniq) - len(missing)))

	if len(missing) > 0 {
		// The needed mask is shared read-only; each run owns its
		// slices. The calling goroutine is one of the workers, so a
		// single missing source (or GOMAXPROCS 1) spawns nothing.
		var next, settledTotal atomic.Int64
		work := func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= len(missing) {
					return
				}
				m := missing[k]
				t, settled := c.g.extend(uniq[m.u], m.from, needed, m.uncovered)
				trees[m.u] = t
				settledTotal.Add(int64(settled))
			}
		}
		var wg sync.WaitGroup
		for w := min(runtime.GOMAXPROCS(0), len(missing)); w > 1; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		c.stats.partials.Add(int64(len(missing)))
		c.stats.resumed.Add(resumed)
		c.stats.settled.Add(settledTotal.Load())

		// Second lock acquisition: publish the new trees so the next
		// batch (and single-pair queries within their horizon) reuse
		// them.
		c.mu.Lock()
		var evictions int64
		for _, m := range missing {
			if c.cache.put(uniq[m.u], trees[m.u], c.CacheSize) {
				evictions++
			}
		}
		c.mu.Unlock()
		if evictions > 0 {
			c.stats.evictions.Add(evictions)
		}
	}

	// Assemble the matrix, pricing approach legs exactly as Cost does.
	for i := range sources {
		row := out[i]
		if srcNode[i] == InvalidNode {
			for j := range row {
				row[j] = math.Inf(1)
			}
			continue
		}
		tree := trees[rowOf[srcNode[i]]-1].dist
		for j := 0; j < nT; j++ {
			if tgtNode[j] == InvalidNode {
				row[j] = math.Inf(1)
				continue
			}
			d := tree[tgtNode[j]]
			if math.IsInf(d, 1) {
				row[j] = d
				continue
			}
			if c.ApproachSpeedMPS > 0 {
				d += (srcApproach[i] + tgtApproach[j]) / c.ApproachSpeedMPS
			}
			row[j] = d
		}
	}
	return out
}
