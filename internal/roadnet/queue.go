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

// pqLess orders the queue's heap (see bucketQueue) by dist.
func pqLess(a, b pqItem) bool { return a.dist < b.dist }

// bucketQueue is the Dijkstra queue: Dial's bucket queue (CACM 12(11),
// 1969) where the graph has a bucket width (see Build), one heapq on
// pqLess where it has none. Key k lies in bucket ⌊k/width⌋, kept in
// ring slot slot+⌊k/width⌋-cur: every key queued at once is less than
// a turn of the ring past cur, so slots never alias. Buckets keep their capacity
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
