package roadnet

import (
	"math"
	"slices"

	"mrvd/internal/heapq"
)

// spTree is a resumable single-source shortest-path result. Every dist
// entry <= horizon is final and its node settled; every other entry is
// tentative or +Inf, and frontier holds the queue the run stopped with
// (all keys > horizon), so extend can carry on where it left off. A
// drained run has horizon +Inf and no frontier: every entry is final,
// including the +Inf of unreachable nodes. Published trees are never
// written again — extend works on copies.
type spTree struct {
	dist     []float64
	frontier []pqItem
	horizon  float64
}

// covers reports whether n's distance is final in t. The zero spTree
// covers nothing.
func (t spTree) covers(n NodeID) bool { return t.dist != nil && t.dist[n] <= t.horizon }

// dijkstra is the one Dijkstra loop (lazy deletion: a stale queue entry
// is skipped when popped). It advances the run held in dist and q until
// remaining nodes marked in needed have been settled — or, with a nil
// mask, until the queue drains, reporting horizon +Inf.
//
// Where the graph has a bucket width, every arc costs at least two, so
// settling an entry cannot improve another in its bucket: a bucket
// drains in any order and each node still settles at the float a heap
// would give it. A bucket holding a needed node (and, without a width,
// the queue's one heap) drains in key order, and the stop is
// taken after the last needed node's arcs are relaxed and every other
// node at the same distance is settled. So the settled set is exactly
// {v : dist[v] <= horizon}, whatever order ties popped in, and the
// queue is the run's complete unsettled state: a later call with the
// same dist and queue is this run continued, which is why resumed
// distances equal a single run's bitwise.
//
// settled counts finalized nodes, the unit of shortest-path work
// GraphCoster.Stats reports.
func (g *Graph) dijkstra(dist []float64, q *bucketQueue, needed []bool, remaining int) (settled int, horizon float64) {
	horizon = math.Inf(1)
	for b := q.least(); b != nil; b = q.least() {
		if q.inv > 0 && (needed == nil || remaining <= 0 || !slices.ContainsFunc(*b, func(it pqItem) bool {
			return needed[it.node] && it.dist == dist[it.node]
		})) {
			items := *b
			*b = items[:0]
			for _, it := range items {
				if it.dist == dist[it.node] {
					settled++
					g.relax(it, dist, q)
				}
			}
			continue
		}
		heapq.Init(*b, pqLess)
		for len(*b) > 0 && (*b)[0].dist <= horizon {
			it := heapq.Pop(b, pqLess)
			if it.dist > dist[it.node] {
				continue // stale entry
			}
			settled++
			if needed != nil && needed[it.node] {
				if remaining--; remaining == 0 {
					horizon = it.dist
				}
			}
			n := len(*b)
			g.relax(it, dist, q)
			for i := n; q.inv == 0 && i < len(*b); i++ {
				heapq.Up(*b, i, pqLess) // without a width, pushes land in this heap
			}
		}
		if horizon < math.Inf(1) {
			break
		}
	}
	return settled, horizon
}

// relax queues every node the arcs of it.node reach at a lower distance.
func (g *Graph) relax(it pqItem, dist []float64, q *bucketQueue) {
	for _, e := range g.arcs(it.node) {
		if nd := it.dist + e.cost; nd < dist[e.to] {
			dist[e.to] = nd
			q.push(pqItem{node: e.to, dist: nd})
		}
	}
}

// extend continues t, src's tree so far (the zero spTree when nothing
// has been computed yet, and an out-of-range src reaches nothing), until
// remaining more nodes marked in needed are settled, or until the queue
// drains when needed is nil. Callers count as remaining only marked
// nodes t does not cover. t is left untouched; the result lives in
// fresh slices. A run that stops with only stale entries queued has
// settled every node it reaches, so it is published complete.
func (g *Graph) extend(src NodeID, t spTree, needed []bool, remaining int) (next spTree, settled int) {
	var dist []float64
	if t.dist == nil {
		dist = make([]float64, g.NumNodes())
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		if src >= 0 && int(src) < len(dist) {
			dist[src] = 0
			t.frontier = []pqItem{{node: src}}
		}
	} else {
		dist = append([]float64(nil), t.dist...)
	}
	q := queuePool.Get().(*bucketQueue)
	defer queuePool.Put(q)
	q.load(g, t.frontier)
	settled, horizon := g.dijkstra(dist, q, needed, remaining)
	frontier := q.frontier(dist)
	if len(frontier) == 0 {
		horizon = math.Inf(1)
	}
	return spTree{dist: dist, frontier: frontier, horizon: horizon}, settled
}

// ShortestPathTree computes distances from src to every node, returning
// +Inf for unreachable ones.
func (g *Graph) ShortestPathTree(src NodeID) []float64 {
	t, _ := g.extend(src, spTree{}, nil, 0)
	return t.dist
}

// ShortestPath returns the minimum travel cost from src to dst in seconds
// and whether dst is reachable, stopping the search once dst is settled.
// Out-of-range endpoints are unreachable.
func (g *Graph) ShortestPath(src, dst NodeID) (float64, bool) {
	if src == dst {
		return 0, true
	}
	n := g.NumNodes()
	if src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return 0, false
	}
	needed := make([]bool, n)
	needed[dst] = true
	t, _ := g.extend(src, spTree{}, needed, 1)
	if d := t.dist[dst]; d < math.Inf(1) {
		return d, true
	}
	return 0, false
}
