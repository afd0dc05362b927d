package roadnet

import (
	"fmt"
	"math"
	"slices"

	"mrvd/internal/geo"
)

// NodeID indexes a vertex of the road graph.
type NodeID int32

// InvalidNode marks "no node" results (empty graphs, unreachable targets).
const InvalidNode NodeID = -1

// edge is one directed arc in the compact adjacency representation.
type edge struct {
	to   NodeID
	cost float64 // seconds of travel time
}

// Graph is a directed road network with travel-time edge weights, stored
// in compressed sparse row form for cache-friendly Dijkstra runs.
type Graph struct {
	pts     []geo.Point
	offsets []int32 // len = numNodes+1; edges of node v are edges[offsets[v]:offsets[v+1]]
	edges   []edge
	// width is the bucket width Dijkstra's queue keys by, half the
	// lightest arc, and buckets the ring length that covers the
	// heaviest; width 0 keeps the queue a binary heap (see Build).
	width   float64
	buckets int
}

// Builder accumulates nodes and arcs and then freezes them into a Graph.
type Builder struct {
	pts  []geo.Point
	from []NodeID
	to   []NodeID
	cost []float64
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode appends a vertex at p and returns its id.
func (b *Builder) AddNode(p geo.Point) NodeID {
	b.pts = append(b.pts, p)
	return NodeID(len(b.pts) - 1)
}

// AddArc appends a directed arc with the given travel cost in seconds.
// It panics on out-of-range ids or a negative or NaN cost — all
// construction bugs, not runtime conditions.
func (b *Builder) AddArc(from, to NodeID, cost float64) {
	n := NodeID(len(b.pts))
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("roadnet: arc %d->%d out of range (%d nodes)", from, to, n))
	}
	if !(cost >= 0) {
		panic(fmt.Sprintf("roadnet: arc cost %v is negative or NaN", cost))
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.cost = append(b.cost, cost)
}

// AddEdge appends arcs in both directions with the same cost.
func (b *Builder) AddEdge(u, v NodeID, cost float64) {
	b.AddArc(u, v, cost)
	b.AddArc(v, u, cost)
}

// Build freezes the builder into an immutable Graph. Its Dijkstra queue
// buckets keys half the lightest arc wide, in a ring of
// ⌈heaviest/width⌉+3 buckets: enough that every key queued at once fits
// in one turn, with a bucket to spare for rounding on either side. A
// 0-cost arc, no arc at all, or a heaviest arc more than 2^16 times the
// lightest (+Inf included) leaves width 0, a binary heap.
func (b *Builder) Build() *Graph {
	n := len(b.pts)
	counts := make([]int32, n+1)
	for _, f := range b.from {
		counts[f+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	edges := make([]edge, len(b.from))
	next := make([]int32, n)
	copy(next, counts[:n])
	for i, f := range b.from {
		edges[next[f]] = edge{to: b.to[i], cost: b.cost[i]}
		next[f]++
	}
	g := &Graph{
		pts:     append([]geo.Point(nil), b.pts...),
		offsets: counts,
		edges:   edges,
	}
	if len(b.cost) > 0 {
		lo, hi := slices.Min(b.cost), slices.Max(b.cost)
		if w := lo / 2; w > 0 && 1/w < math.Inf(1) && hi <= lo*(1<<16) {
			g.width, g.buckets = w, int(math.Ceil(hi/w))+3
		}
	}
	return g
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.pts) }

// Point returns the location of a node.
func (g *Graph) Point(id NodeID) geo.Point { return g.pts[id] }

// arcs returns the outgoing arcs of v as a shared slice.
func (g *Graph) arcs(v NodeID) []edge {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}
