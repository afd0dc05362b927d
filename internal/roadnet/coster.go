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
// It keeps one shortest-path tree per source node — nodes² float64s at
// most, 42 MB on the 48×48 synthetic grid — each with its coverage
// horizon and the queue its run stopped with. A query whose targets lie
// inside a source's tree horizon is a hit; one that reaches beyond
// extends the tree — the same Dijkstra run continued on a copy, then
// republished — rather than starting over: batched Costs queries extend
// until the batch's targets are covered, single-pair Cost queries until
// the tree is complete. So a stationary driver's tree from one batch
// prices the next. Off-network legs between a query point and its
// snapped node are local streets, priced at DefaultSpeedMPS. It is safe
// for concurrent use, so one coster can back a parallel Sweep, and it
// implements BatchCoster for many-to-many pricing (see Costs).
type GraphCoster struct {
	g    *Graph
	snap *snapIndex
	mu   sync.Mutex
	// trees holds each source node's published tree, the zero spTree
	// until the node is first queried as a source. Guarded by mu.
	trees []spTree
	// snaps memoizes snap.nearest by query point: a stationary driver
	// or a waiting rider is snapped once. Guarded by mu.
	snaps map[geo.Point]snapped

	stats costerCounters
}

// NewGraphCoster wraps a road network in the Coster interface.
func NewGraphCoster(g *Graph) *GraphCoster {
	return &GraphCoster{
		g:     g,
		snap:  newSnapIndex(g),
		trees: make([]spTree, g.NumNodes()),
		snaps: make(map[geo.Point]snapped),
	}
}

// publish makes t source n's tree unless the published one reaches at
// least as far: two callers may extend one tree at once, and the lesser
// result must not undo the greater. Callers hold mu.
func (c *GraphCoster) publish(n NodeID, t spTree) {
	if old := c.trees[n]; old.dist == nil || t.horizon > old.horizon {
		c.trees[n] = t
	}
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
	t := c.trees[na]
	c.mu.Unlock()
	if t.covers(nb) {
		c.stats.cacheHits.Add(1)
	} else {
		// No tree yet, or one that doesn't reach nb: complete it
		// outside the lock. Trees are deterministic, so a racing
		// duplicate computation is wasted work, not wrong work.
		resumed := t.dist != nil
		var settled int
		t, settled = c.g.extend(na, t, nil, 0)
		c.stats.trees.Add(1)
		if resumed {
			c.stats.resumed.Add(1)
		}
		c.stats.settled.Add(int64(settled))
		c.mu.Lock()
		c.publish(na, t)
		c.mu.Unlock()
	}
	d := t.dist[nb]
	if math.IsInf(d, 1) {
		return d
	}
	return d + (sa.approach+sb.approach)/DefaultSpeedMPS
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
