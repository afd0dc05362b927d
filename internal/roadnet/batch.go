package roadnet

import (
	"math"
	"runtime"
	"slices"
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
// Implementing it is the pricing policy: the engine prices a
// BatchCoster in one call per batch (the candidate pairs, through
// CostPairs when the coster is a PairCoster and picked out of one dense
// Costs matrix otherwise), one Costs call per chunk of at most 256
// trips — pickup to dropoff, for the riders that hold their first valid
// pair or pool option that batch, read off the diagonal — and two per
// pooling search, and prices a plain Coster cell by cell as it reads
// them. A trip no batch priced (a rider without a pair ranked by UPPER)
// costs one Cost query, once.
// Implement it when one call amortizes per-source work across targets
// (a shortest-path tree per unique source) or per-call overhead across
// cells (one RPC to a routing service); a closed form, O(1) per cell,
// has nothing to amortize and stays a plain Coster — as
// GreatCircleCoster does.
type BatchCoster interface {
	Coster
	// Costs returns the len(sources) x len(targets) travel-time matrix
	// in seconds, +Inf for unreachable pairs. The returned rows are
	// freshly allocated and owned by the caller.
	Costs(sources, targets []geo.Point) [][]float64
}

// PairCoster is the optional sparse form of BatchCoster: one call
// prices only the pairs the caller will read. A batch's drivers x
// riders matrix is mostly cells nobody reads — a rider's candidates are
// the drivers in its own patience radius — and a shortest-path tree
// that stops at its own farthest target, not the city's, is cheaper.
type PairCoster interface {
	BatchCoster
	// CostPairs writes to out[k] the seconds from sources[src[k]] to
	// targets[tgt[k]], bitwise-equal to Cost of that pair. src, tgt and
	// out have one entry per pair; pairs may repeat.
	CostPairs(sources, targets []geo.Point, src, tgt []int32, out []float64)
}

// newCostMatrix allocates a dense rows x cols matrix backed by one
// slab, which it also returns row-major.
func newCostMatrix(rows, cols int) (out [][]float64, cells []float64) {
	out = make([][]float64, rows)
	cells = make([]float64, rows*cols)
	for i := range out {
		out[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out, cells
}

// costerCounters instruments a GraphCoster's query work.
type costerCounters struct {
	trees     atomic.Int64
	partials  atomic.Int64
	resumed   atomic.Int64
	settled   atomic.Int64
	cacheHits atomic.Int64
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
	// Resumed counts the runs, of either kind, that continued a
	// published tree from its frontier instead of starting at the source.
	Resumed int64
	// SettledNodes totals nodes finalized across all Dijkstra runs —
	// the unit of shortest-path work the per-pair and batch query paths
	// share, and what TestBatchCostsFewerComputations compares. A
	// complete tree settles every reachable node once, however many
	// runs built it.
	SettledNodes int64
	// CacheHits counts queries answered from a source's published tree.
	CacheHits int64
	// Evictions is always 0: every source node keeps its tree. It
	// stays for readers of the field.
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
	}
}

// costScratch is the working memory of one GraphCoster.price call, and
// of each extra worker it fans out to (which uses needed only). Between
// uses needed and rowOf are blank, whatever graph they last served.
type costScratch struct {
	src, tgt       []snapped
	allSrc, allTgt []int32 // the pair list Costs stands for
	// needed is a run's stop mask, one cell per graph node; rowOf maps a
	// source node to its index in uniq, plus one.
	needed []bool
	rowOf  []int32
	// uniq lists the call's source nodes once each, in first-use order:
	// co-located drivers share one Dijkstra. Source uniq[u] must reach
	// the target nodes want[wantEnd[u-1]:wantEnd[u]], and trees[u] is
	// its tree; missing lists the sources whose tree has to be extended.
	uniq, want       []NodeID
	wantEnd, missing []int
	trees            []spTree
}

var scratchPool = sync.Pool{New: func() any { return new(costScratch) }}

// getScratch borrows a scratch for nS sources, nT targets, nodes nodes.
func getScratch(nS, nT, nodes int) *costScratch {
	sc := scratchPool.Get().(*costScratch)
	sc.src = slices.Grow(sc.src[:0], nS)[:nS]
	sc.tgt = slices.Grow(sc.tgt[:0], nT)[:nT]
	if len(sc.rowOf) < nodes {
		sc.needed, sc.rowOf = make([]bool, nodes), make([]int32, nodes)
	}
	return sc
}

// put returns the scratch, rowOf blank again and no tree kept alive.
func (sc *costScratch) put() {
	for _, n := range sc.uniq {
		sc.rowOf[n] = 0
	}
	clear(sc.trees)
	sc.allSrc, sc.allTgt, sc.trees = sc.allSrc[:0], sc.allTgt[:0], sc.trees[:0]
	sc.uniq, sc.want, sc.wantEnd, sc.missing = sc.uniq[:0], sc.want[:0], sc.wantEnd[:0], sc.missing[:0]
	scratchPool.Put(sc)
}

// group fills uniq, want and wantEnd from the pair list: a counting
// sort of the pairs' target nodes by unique source. Pairs with an
// unsnappable endpoint need no tree and are left out.
func (sc *costScratch) group(src, tgt []int32) {
	for k, i := range src {
		sn := sc.src[i].node
		if sn == InvalidNode || sc.tgt[tgt[k]].node == InvalidNode {
			continue
		}
		if sc.rowOf[sn] == 0 {
			sc.uniq, sc.wantEnd = append(sc.uniq, sn), append(sc.wantEnd, 0)
			sc.rowOf[sn] = int32(len(sc.uniq))
		}
		sc.wantEnd[sc.rowOf[sn]-1]++
	}
	total := 0
	for u, n := range sc.wantEnd {
		sc.wantEnd[u] = total // group u's start, advanced to its end below
		total += n
	}
	sc.want = slices.Grow(sc.want[:0], total)[:total]
	for k, i := range src {
		if sn, tn := sc.src[i].node, sc.tgt[tgt[k]].node; sn != InvalidNode && tn != InvalidNode {
			u := sc.rowOf[sn] - 1
			sc.want[sc.wantEnd[u]] = tn
			sc.wantEnd[u]++
		}
	}
}

// wants returns the target nodes source uniq[u] must reach.
func (sc *costScratch) wants(u int) []NodeID {
	lo := 0
	if u > 0 {
		lo = sc.wantEnd[u-1]
	}
	return sc.want[lo:sc.wantEnd[u]]
}

// Costs implements BatchCoster: the all-pairs case of price.
func (c *GraphCoster) Costs(sources, targets []geo.Point) [][]float64 {
	out, cells := newCostMatrix(len(sources), len(targets))
	c.price(sources, targets, nil, nil, cells)
	return out
}

// CostPairs implements PairCoster.
func (c *GraphCoster) CostPairs(sources, targets []geo.Point, src, tgt []int32, out []float64) {
	c.price(sources, targets, src, tgt, out[:len(src)])
}

// price is the one batched query path. It writes to out the cost of
// every listed pair (sources[src[k]], targets[tgt[k]]) — with nil src
// and tgt, of every pair, row-major. Every endpoint is snapped once
// (see snapped), source nodes are deduplicated, and one Dijkstra run
// per unique source its published tree does not cover is fanned over a
// worker pool. The coster's mutex is taken twice — to snap and read the
// published trees up front, and to publish new trees — rather than once per
// pair, so workers never contend on a lock.
//
// Each run extends its source's tree only until the target nodes of
// that source's own pairs are settled, which on clustered city
// workloads is a small fraction of the full tree (Stats reports the
// work in SettledNodes). A first-seen source starts from nothing; a
// published tree whose horizon falls short of its targets is continued
// from its frontier, on a copy, so the nodes it already settled are
// never settled again and callers still reading the published tree are
// not disturbed. Stopping early never changes settled values, so every
// cell is bitwise-identical to a per-pair query.
func (c *GraphCoster) price(sources, targets []geo.Point, src, tgt []int32, out []float64) {
	if len(out) == 0 {
		return
	}
	nodes := c.g.NumNodes()
	sc := getScratch(len(sources), len(targets), nodes)
	defer sc.put()
	if src == nil {
		for i := range sources {
			for j := range targets {
				sc.allSrc, sc.allTgt = append(sc.allSrc, int32(i)), append(sc.allTgt, int32(j))
			}
		}
		src, tgt = sc.allSrc, sc.allTgt
	}

	// First lock acquisition: snap, then serve sources from published
	// trees whose horizon reaches every target node they are asked for
	// — only then is every cell the caller reads final. The rest are
	// queued, trees[u] the tree to continue (none if first seen).
	var resumed int64
	c.mu.Lock()
	for i, p := range sources {
		sc.src[i] = c.snapped(p)
	}
	for j, p := range targets {
		sc.tgt[j] = c.snapped(p)
	}
	sc.group(src, tgt)
	sc.trees = slices.Grow(sc.trees[:0], len(sc.uniq))[:len(sc.uniq)]
	for u, n := range sc.uniq {
		t := c.trees[n]
		sc.trees[u] = t
		if slices.ContainsFunc(sc.wants(u), func(tn NodeID) bool { return !t.covers(tn) }) {
			sc.missing = append(sc.missing, u)
			if t.dist != nil {
				resumed++
			}
		}
	}
	c.mu.Unlock()
	c.stats.cacheHits.Add(int64(len(sc.uniq) - len(sc.missing)))

	if len(sc.missing) > 0 {
		// Each worker marks a run's uncovered targets in its own needed
		// mask and wipes them after. The caller is one of the workers:
		// a single missing source (or GOMAXPROCS 1) spawns nothing.
		var next, settledTotal atomic.Int64
		work := func(needed []bool) {
			for {
				k := int(next.Add(1)) - 1
				if k >= len(sc.missing) {
					return
				}
				u := sc.missing[k]
				from, want, remaining := sc.trees[u], sc.wants(u), 0
				for _, tn := range want {
					if !needed[tn] && !from.covers(tn) {
						needed[tn] = true
						remaining++
					}
				}
				t, settled := c.g.extend(sc.uniq[u], from, needed, remaining)
				for _, tn := range want {
					needed[tn] = false
				}
				sc.trees[u] = t
				settledTotal.Add(int64(settled))
			}
		}
		var wg sync.WaitGroup
		for w := min(runtime.GOMAXPROCS(0), len(sc.missing)); w > 1; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := getScratch(0, 0, nodes)
				defer ws.put()
				work(ws.needed)
			}()
		}
		work(sc.needed)
		wg.Wait()
		c.stats.partials.Add(int64(len(sc.missing)))
		c.stats.resumed.Add(resumed)
		c.stats.settled.Add(settledTotal.Load())

		// Second lock acquisition: publish the new trees so the next
		// batch (and single-pair queries within their horizon) reuse
		// them.
		c.mu.Lock()
		for _, u := range sc.missing {
			c.publish(sc.uniq[u], sc.trees[u])
		}
		c.mu.Unlock()
	}

	// Price each pair's approach legs exactly as Cost does.
	for k := range out {
		s, t := sc.src[src[k]], sc.tgt[tgt[k]]
		d := math.Inf(1)
		if s.node != InvalidNode && t.node != InvalidNode {
			d = sc.trees[sc.rowOf[s.node]-1].dist[t.node]
		}
		if !math.IsInf(d, 1) {
			d += (s.approach + t.approach) / DefaultSpeedMPS
		}
		out[k] = d
	}
}
