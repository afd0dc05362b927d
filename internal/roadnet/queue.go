package roadnet

import (
	"slices"
	"sync"
)

// pqItem is one entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// minHeap is a binary min-heap of pqItems keyed on dist, on the
// concrete element type so nothing is boxed. A push is an append
// followed by up.
type minHeap []pqItem

// pop removes and returns a minimum item. The heap must not be empty.
func (h *minHeap) pop() pqItem {
	q := *h
	top := q[0]
	q[0] = q[len(q)-1]
	*h = q[:len(q)-1]
	h.down(0)
	return top
}

// init orders h into a heap, sifting each parent down, the last first.
func (h minHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts h[i] up to its place.
func (h minHeap) up(i int) {
	x := h[i]
	for ; i > 0 && h[(i-1)/2].dist > x.dist; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = x
}

// down sifts h[i] down to its place. Which child is smaller is a coin
// toss the branch predictor loses, so where both exist the choice is
// written as an index increment the compiler makes branch-free.
func (h minHeap) down(i int) {
	if i >= len(h) {
		return
	}
	x, c := h[i], 2*i+1
	for ; c+1 < len(h); c = 2*c + 1 {
		k := 0
		if h[c+1].dist < h[c].dist {
			k = 1
		}
		if c += k; h[c].dist >= x.dist {
			break
		}
		h[i], i = h[c], c
	}
	if c < len(h) && h[c].dist < x.dist { // a lone left child at the bottom
		h[i], i = h[c], c
	}
	h[i] = x
}

// bucketQueue is the Dijkstra queue: Dial's bucket queue (CACM 12(11),
// 1969) where the graph has a bucket width (see Build), one minHeap
// where it has none. Key k lies in bucket ⌊k/width⌋, kept in ring slot
// slot+⌊k/width⌋-cur: every key queued at once is less than a turn of
// the ring past cur, so slots never alias. Buckets keep their capacity
// and queues are pooled, so a run allocates nothing once grown.
type bucketQueue struct {
	ring      [][]pqItem
	inv       float64 // 1/width, or 0: every key in ring[0]
	cur, slot int     // ring[slot] holds bucket cur, the least nonempty one
	spare     []pqItem
}

var queuePool = sync.Pool{New: func() any { return new(bucketQueue) }}

// load empties q, shapes it for g, and queues items: a run's source or
// a stopped run's frontier, whose keys were relaxed from nodes at or
// below its horizon and so lie within a turn of the least of them.
func (q *bucketQueue) load(g *Graph, items []pqItem) {
	if n := max(g.buckets, 1); cap(q.ring) >= n {
		q.ring = q.ring[:n]
	} else {
		q.ring = make([][]pqItem, n)
	}
	for i := range q.ring {
		q.ring[i] = q.ring[i][:0]
	}
	q.inv, q.cur, q.slot = 0, 0, 0
	if g.width > 0 {
		q.inv = 1 / g.width
	}
	if len(items) > 0 {
		lo := items[0].dist
		for _, it := range items {
			lo = min(lo, it.dist)
		}
		q.cur = int(lo * q.inv)
	}
	for _, it := range items {
		q.push(it)
	}
}

// push queues it, which must lie past the bucket being drained — or,
// without a width, anywhere in ring[0], appended unordered.
func (q *bucketQueue) push(it pqItem) {
	s := q.slot + int(it.dist*q.inv) - q.cur
	if s >= len(q.ring) {
		s -= len(q.ring)
	}
	q.ring[s] = append(q.ring[s], it)
}

// least returns the least nonempty bucket, for the caller to drain in
// place, or nil once a turn of the ring finds every bucket empty.
func (q *bucketQueue) least() *[]pqItem {
	for range q.ring {
		if len(q.ring[q.slot]) > 0 {
			return &q.ring[q.slot]
		}
		q.cur++
		if q.slot++; q.slot == len(q.ring) {
			q.slot = 0
		}
	}
	return nil
}

// frontier returns, in a fresh slice, the queued entries keyed at their
// node's distance. A reached node not yet settled has exactly one, in
// whatever order the run relaxed, so without the stale rest the
// frontier is the run's unsettled state and nothing else.
func (q *bucketQueue) frontier(dist []float64) []pqItem {
	live := q.spare[:0]
	for _, b := range q.ring {
		for _, it := range b {
			if it.dist == dist[it.node] {
				live = append(live, it)
			}
		}
	}
	q.spare = live
	return slices.Clone(live)
}
