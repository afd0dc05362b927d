package roadnet

import (
	"math"
	"sync"
)

// pqItem is one entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// minHeap is a binary min-heap of pqItems keyed on dist. Push and pop
// work on the concrete element type, so nothing is boxed and, once the
// backing array has grown, nothing is allocated.
type minHeap []pqItem

func (h *minHeap) push(it pqItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].dist <= it.dist {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	*h = q
}

// pop removes and returns a minimum item. The heap must not be empty.
func (h *minHeap) pop() pqItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	// Sift last down from the root. Which child is smaller is a coin
	// toss the branch predictor loses, so where both exist the choice
	// is written as an index increment the compiler makes branch-free.
	i, c := 0, 1
	for c+1 < n {
		k := 0
		if q[c+1].dist < q[c].dist {
			k = 1
		}
		c += k
		child := q[c]
		if child.dist >= last.dist {
			break
		}
		q[i] = child
		i = c
		c = 2*c + 1
	}
	if c < n && q[c].dist < last.dist { // a lone left child at the bottom
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// heapPool recycles queue backing arrays across runs: a run borrows
// one, and whatever outlives the run (a tree's frontier) is copied out.
var heapPool = sync.Pool{New: func() any { return new(minHeap) }}

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
// is skipped when popped). It advances the run held in dist and pq
// until remaining nodes marked in needed have been settled — or, with
// a nil mask, until the queue drains.
//
// The stop is taken after the last needed node's arcs are relaxed and
// after every other node at the same distance is settled too. So on
// return the settled set is exactly {v : dist[v] <= horizon}, whatever
// order ties popped in, and the queue is the run's complete unsettled
// state: a later call with the same dist and pq is this run continued,
// which is why resumed distances equal a single run's bitwise. A
// drained queue reports horizon +Inf.
//
// settled counts finalized nodes, the unit of shortest-path work
// GraphCoster.Stats reports.
func (g *Graph) dijkstra(dist []float64, pq *minHeap, needed []bool, remaining int) (settled int, horizon float64) {
	horizon = math.Inf(1)
	h := *pq
	for len(h) > 0 && h[0].dist <= horizon {
		item := h.pop()
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		settled++
		if needed != nil && needed[item.node] {
			if remaining--; remaining == 0 {
				horizon = item.dist
			}
		}
		for _, e := range g.arcs(item.node) {
			if nd := item.dist + e.cost; nd < dist[e.to] {
				dist[e.to] = nd
				h.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	*pq = h
	if len(h) == 0 {
		horizon = math.Inf(1)
	}
	return settled, horizon
}

// start returns the state of a run from src before its first pop: all
// distances +Inf but src's, and src queued in pq. An out-of-range src
// leaves the queue empty.
func (g *Graph) start(src NodeID, pq *minHeap) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	*pq = (*pq)[:0]
	if src >= 0 && int(src) < len(dist) {
		dist[src] = 0
		pq.push(pqItem{node: src})
	}
	return dist
}

// extend continues t, src's tree so far (the zero spTree when nothing
// has been computed yet), until remaining more nodes marked in needed
// are settled, or until the queue drains when needed is nil. Callers
// count as remaining only marked nodes t does not cover. t is left
// untouched; the result lives in fresh slices.
func (g *Graph) extend(src NodeID, t spTree, needed []bool, remaining int) (next spTree, settled int) {
	pq := heapPool.Get().(*minHeap)
	defer heapPool.Put(pq)
	var dist []float64
	if t.dist == nil {
		dist = g.start(src, pq)
	} else {
		dist = append([]float64(nil), t.dist...)
		*pq = append((*pq)[:0], t.frontier...)
	}
	settled, horizon := g.dijkstra(dist, pq, needed, remaining)
	return spTree{dist: dist, frontier: append([]pqItem(nil), *pq...), horizon: horizon}, settled
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
	pq := heapPool.Get().(*minHeap)
	defer heapPool.Put(pq)
	dist := g.start(src, pq)
	g.dijkstra(dist, pq, needed, 1)
	if math.IsInf(dist[dst], 1) {
		return 0, false
	}
	return dist[dst], true
}
