package roadnet

import (
	"sync"

	"math"

	"mrvd/internal/geo"
)

// Coster converts an origin/destination pair into a travel cost in
// seconds. The paper treats travel time and distance interchangeably
// given a speed (Section 2); everything downstream (simulator, dispatch,
// queueing analysis) consumes this interface only.
type Coster interface {
	// Cost returns the travel time in seconds from a to b.
	Cost(a, b geo.Point) float64
}

// GreatCircleCoster approximates travel time as L1 street distance at a
// fixed speed. DetourFactor inflates the straight-line haversine distance
// when L1 is disabled; with Manhattan geometry the factor is implicit.
type GreatCircleCoster struct {
	// SpeedMPS is the assumed average vehicle speed in meters/second.
	SpeedMPS float64
	// UseManhattan selects L1 (street-grid) distance instead of L2.
	UseManhattan bool
	// DetourFactor multiplies the L2 distance when UseManhattan is false;
	// 1.0 means straight-line. Typical urban detour factors are ~1.3.
	DetourFactor float64
}

// DefaultSpeedMPS is the default average vehicle speed: 11 m/s
// (~40 km/h), a typical NYC taxi average outside the densest core.
const DefaultSpeedMPS = 11.0

// NewDefaultCoster returns the simulator's default coster: Manhattan
// distance at DefaultSpeedMPS.
func NewDefaultCoster() *GreatCircleCoster {
	return &GreatCircleCoster{SpeedMPS: DefaultSpeedMPS, UseManhattan: true}
}

// Cost implements Coster.
func (c *GreatCircleCoster) Cost(a, b geo.Point) float64 {
	speed := c.SpeedMPS
	if speed <= 0 {
		speed = 8.0
	}
	var d float64
	if c.UseManhattan {
		d = geo.Manhattan(a, b)
	} else {
		f := c.DetourFactor
		if f <= 0 {
			f = 1.0
		}
		d = geo.Equirect(a, b) * f
	}
	return d / speed
}

// GraphCoster computes travel time as a shortest path on a road network,
// snapping endpoints to their nearest graph nodes via a bucketed index.
// Shortest-path trees are memoized up to CacheSize sources under clock
// (second-chance) eviction, each with its coverage horizon and the
// queue its run stopped with. A query whose targets lie inside a cached
// tree's horizon is a hit; one that reaches beyond extends the tree —
// the same Dijkstra run continued on a copy, then republished — rather
// than starting over: batched Costs queries extend until the batch's
// targets are covered, single-pair Cost queries until the tree is
// complete. So a stationary driver's tree from one batch prices the
// next, and re-queried sources survive cache pressure while one-shot
// scans evict themselves. It is safe for concurrent use, so one coster
// can back a parallel Sweep, and it implements BatchCoster for
// many-to-many pricing (see Costs).
type GraphCoster struct {
	g     *Graph
	snap  *snapIndex
	mu    sync.Mutex
	cache *treeCache
	// snaps memoizes snap.nearest by query point: a stationary driver
	// or a waiting rider is snapped once. Guarded by mu.
	snaps map[geo.Point]snapped
	// CacheSize bounds the number of memoized shortest-path trees. Set
	// it before the first query; the default holds a tree for every
	// node up to a 64 MiB budget of distance arrays, and never fewer
	// than 512 trees (see defaultCacheSize).
	CacheSize int
	// ApproachSpeedMPS prices the off-network legs between the query
	// points and their snapped nodes. The legs are local streets, so the
	// default is DefaultSpeedMPS; set to 0 to ignore approach legs.
	ApproachSpeedMPS float64

	stats costerCounters
}

// NewGraphCoster wraps a road network in the Coster interface.
func NewGraphCoster(g *Graph) *GraphCoster {
	return &GraphCoster{
		g:                g,
		snap:             newSnapIndex(g),
		cache:            newTreeCache(),
		snaps:            make(map[geo.Point]snapped),
		CacheSize:        defaultCacheSize(g.NumNodes()),
		ApproachSpeedMPS: DefaultSpeedMPS,
	}
}

// treeCacheBytes is the memory the default tree cache may spend on
// distance arrays, one float64 per node per tree.
const treeCacheBytes = 64 << 20

// defaultCacheSize is GraphCoster's default CacheSize on a graph of the
// given node count: as many trees as treeCacheBytes holds, but never
// fewer than 512 and never more than one per node — there is at most
// one tree per source node, so a cache that size never evicts.
func defaultCacheSize(nodes int) int {
	if nodes < 1 {
		return 1
	}
	return min(nodes, max(512, treeCacheBytes/(8*nodes)))
}

// snapped is a memoized snapIndex.nearest result.
type snapped struct {
	node     NodeID
	approach float64 // meters from the query point to node
}

// snapMemoCap bounds GraphCoster.snaps. Every order brings two new
// points (its pickup, and its dropoff as a driver's next position), so
// the memo is wiped when full: a fleet of re-snaps per 4K orders.
const snapMemoCap = 8192

// snapped returns snap.nearest(p) through the memo. Callers hold mu.
func (c *GraphCoster) snapped(p geo.Point) snapped {
	s, ok := c.snaps[p]
	if !ok {
		if len(c.snaps) >= snapMemoCap {
			clear(c.snaps)
		}
		s.node, s.approach = c.snap.nearest(p)
		c.snaps[p] = s
	}
	return s
}

// Cost implements Coster. Unreachable pairs are priced at +Inf so the
// dispatcher naturally never selects them.
func (c *GraphCoster) Cost(a, b geo.Point) float64 {
	c.mu.Lock()
	sa, sb := c.snapped(a), c.snapped(b)
	na, nb := sa.node, sb.node
	if na == InvalidNode || nb == InvalidNode {
		c.mu.Unlock()
		return math.Inf(1)
	}
	t, ok := c.cache.get(na)
	c.mu.Unlock()
	if ok && t.covers(nb) {
		c.stats.cacheHits.Add(1)
	} else {
		// Miss, or a cached tree that doesn't reach nb: complete it
		// outside the lock. Trees are deterministic, so a racing
		// duplicate computation is wasted work, not wrong work.
		var settled int
		t, settled = c.g.extend(na, t, nil, 0)
		c.stats.trees.Add(1)
		if ok {
			c.stats.resumed.Add(1)
		}
		c.stats.settled.Add(int64(settled))
		c.mu.Lock()
		evicted := c.cache.put(na, t, c.CacheSize)
		c.mu.Unlock()
		if evicted {
			c.stats.evictions.Add(1)
		}
	}
	d := t.dist[nb]
	if math.IsInf(d, 1) {
		return d
	}
	if c.ApproachSpeedMPS > 0 {
		d += (sa.approach + sb.approach) / c.ApproachSpeedMPS
	}
	return d
}

// treeCache memoizes shortest-path trees per source node with clock
// (second-chance) eviction: every hit sets the entry's reference bit,
// and an insert at capacity sweeps the clock hand, clearing set bits and
// replacing the first unreferenced entry. Unlike the previous
// reset-when-full policy — which discarded every hot tree the moment the
// cache filled, typically mid-batch — eviction pressure now lands on the
// sources that stopped being queried. Callers hold the owning coster's
// mutex; the cache itself does no locking.
type treeCache struct {
	slots []treeSlot
	index map[NodeID]int
	hand  int
}

// treeSlot is one cached tree. Callers must check a distance against
// the tree's horizon before trusting it. A slot holds at most one
// float64 per node plus the tree's frontier — one queue entry per
// reached node not yet settled — and a complete tree has no frontier.
type treeSlot struct {
	node NodeID
	spTree
	ref bool
}

func newTreeCache() *treeCache {
	return &treeCache{index: make(map[NodeID]int)}
}

// get returns the cached tree for n, marking the entry referenced.
func (tc *treeCache) get(n NodeID) (spTree, bool) {
	i, ok := tc.index[n]
	if !ok {
		return spTree{}, false
	}
	tc.slots[i].ref = true
	return tc.slots[i].spTree, true
}

// put inserts a tree, evicting by second chance once capacity entries
// exist. New entries start unreferenced: a source only earns its
// reference bit by being queried again, so a scan of one-shot sources
// evicts itself under pressure while the re-queried hot set survives.
// A tree for a source already present replaces the entry only when it
// reaches further: two callers may extend one entry at once, and the
// lesser result must not undo the greater. It reports whether an
// existing entry was evicted to make room.
func (tc *treeCache) put(n NodeID, t spTree, capacity int) (evicted bool) {
	if i, ok := tc.index[n]; ok {
		if t.horizon > tc.slots[i].horizon {
			tc.slots[i].spTree = t
		}
		tc.slots[i].ref = true
		return false
	}
	if capacity < 1 {
		capacity = 1
	}
	if len(tc.slots) < capacity {
		tc.index[n] = len(tc.slots)
		tc.slots = append(tc.slots, treeSlot{node: n, spTree: t})
		return false
	}
	for {
		if tc.hand >= len(tc.slots) {
			tc.hand = 0
		}
		s := &tc.slots[tc.hand]
		if s.ref {
			s.ref = false
			tc.hand++
			continue
		}
		delete(tc.index, s.node)
		*s = treeSlot{node: n, spTree: t}
		tc.index[n] = tc.hand
		tc.hand++
		return true
	}
}

// snapIndex buckets graph nodes on a coarse grid for nearest-node lookup.
type snapIndex struct {
	g       *Graph
	grid    *geo.Grid
	buckets [][]NodeID
}

func newSnapIndex(g *Graph) *snapIndex {
	// Derive the bucketing box from the node extent with a small margin.
	if g.NumNodes() == 0 {
		return &snapIndex{g: g}
	}
	box := geo.BBox{
		MinLng: math.Inf(1), MinLat: math.Inf(1),
		MaxLng: math.Inf(-1), MaxLat: math.Inf(-1),
	}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Point(NodeID(i))
		box.MinLng = math.Min(box.MinLng, p.Lng)
		box.MaxLng = math.Max(box.MaxLng, p.Lng)
		box.MinLat = math.Min(box.MinLat, p.Lat)
		box.MaxLat = math.Max(box.MaxLat, p.Lat)
	}
	const margin = 1e-6
	box.MinLng -= margin
	box.MinLat -= margin
	box.MaxLng += margin
	box.MaxLat += margin
	dim := int(math.Sqrt(float64(g.NumNodes())))
	if dim < 4 {
		dim = 4
	}
	if dim > 128 {
		dim = 128
	}
	grid := geo.NewGrid(box, dim, dim)
	buckets := make([][]NodeID, grid.NumRegions())
	for i := 0; i < g.NumNodes(); i++ {
		r := grid.Region(grid.Bounds().Clamp(g.Point(NodeID(i))))
		buckets[r] = append(buckets[r], NodeID(i))
	}
	return &snapIndex{g: g, grid: grid, buckets: buckets}
}

// nearest returns the closest node to p and its distance in meters,
// expanding the ring of searched buckets until a hit is confirmed.
func (s *snapIndex) nearest(p geo.Point) (NodeID, float64) {
	if s.g.NumNodes() == 0 {
		return InvalidNode, math.Inf(1)
	}
	p2 := s.grid.Bounds().Clamp(p)
	best := InvalidNode
	bestD := math.Inf(1)
	// Expand search radius ring by ring; cell size bounds the guarantee.
	cellMeters := s.grid.Bounds().WidthMeters() / float64(s.grid.Cols())
	for radius := cellMeters; ; radius *= 2 {
		for _, r := range s.grid.RegionsWithin(p2, radius) {
			for _, id := range s.buckets[r] {
				d := geo.Equirect(p, s.g.Point(id))
				if d < bestD {
					bestD = d
					best = id
				}
			}
		}
		// A confirmed hit closer than the searched radius cannot be beaten
		// by nodes outside it.
		if best != InvalidNode && bestD <= radius {
			return best, bestD
		}
		if radius > 2*s.grid.Bounds().WidthMeters()+2*s.grid.Bounds().HeightMeters() {
			// Entire area searched.
			return best, bestD
		}
	}
}
