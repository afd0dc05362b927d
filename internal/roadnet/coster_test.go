package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
)

func TestGreatCircleCosterManhattan(t *testing.T) {
	c := NewDefaultCoster()
	a := geo.Point{Lng: -73.98, Lat: 40.75}
	b := geo.Point{Lng: -73.95, Lat: 40.78}
	want := geo.Manhattan(a, b) / DefaultSpeedMPS
	if got := c.Cost(a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if c.Cost(a, a) != 0 {
		t.Error("self cost should be 0")
	}
}

func TestGreatCircleCosterDetour(t *testing.T) {
	c := &GreatCircleCoster{SpeedMPS: 10, UseManhattan: false, DetourFactor: 1.3}
	a := geo.Point{Lng: -73.98, Lat: 40.75}
	b := geo.Point{Lng: -73.95, Lat: 40.78}
	want := geo.Equirect(a, b) * 1.3 / 10
	if got := c.Cost(a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestGreatCircleCosterZeroSpeedDefaults(t *testing.T) {
	c := &GreatCircleCoster{UseManhattan: true}
	a := geo.Point{Lng: -73.98, Lat: 40.75}
	b := geo.Point{Lng: -73.97, Lat: 40.75}
	if got := c.Cost(a, b); math.IsInf(got, 1) || got <= 0 {
		t.Errorf("zero-speed coster returned %v", got)
	}
}

func TestGraphCosterAgainstDirectDijkstra(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 12, Cols: 12, Seed: 7, DropFraction: 0})
	c := NewGraphCoster(g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		na := NodeID(rng.Intn(g.NumNodes()))
		nb := NodeID(rng.Intn(g.NumNodes()))
		want, ok := g.ShortestPath(na, nb)
		if !ok {
			t.Fatal("unreachable in full lattice")
		}
		got := c.Cost(g.Point(na), g.Point(nb))
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("coster %v != dijkstra %v for %d->%d", got, want, na, nb)
		}
	}
}

func TestGraphCosterApproachLeg(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 6, Cols: 6, Seed: 1})
	c := NewGraphCoster(g)
	node := g.Point(0)
	// Query slightly off a node: cost to itself should be the two
	// approach legs only.
	off := geo.Point{Lng: node.Lng + 0.0001, Lat: node.Lat}
	got := c.Cost(off, off)
	want := 2 * geo.Equirect(off, node) / DefaultSpeedMPS
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("approach-leg cost = %v, want %v", got, want)
	}
}

func TestGraphCosterEmptyGraph(t *testing.T) {
	c := NewGraphCoster(NewBuilder().Build())
	if got := c.Cost(geo.Point{}, geo.Point{Lng: 1}); !math.IsInf(got, 1) {
		t.Errorf("empty-graph cost = %v, want +Inf", got)
	}
}

func TestSnapIndexNearestExact(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 10, Cols: 10, Seed: 9})
	s := newSnapIndex(g)
	for _, id := range []NodeID{0, 37, 99} {
		got, d := s.nearest(g.Point(id))
		if got != id || d > 1e-6 {
			t.Errorf("nearest(node %d) = %d at %.2fm", id, got, d)
		}
	}
}

func TestSnapIndexNearestMatchesBruteForce(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 15, Cols: 15, Seed: 13})
	s := newSnapIndex(g)
	rng := rand.New(rand.NewSource(13))
	box := geo.NYCBBox
	for i := 0; i < 50; i++ {
		q := geo.Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		}
		got, gotD := s.nearest(q)
		bestD := math.Inf(1)
		for n := 0; n < g.NumNodes(); n++ {
			if d := geo.Equirect(q, g.Point(NodeID(n))); d < bestD {
				bestD = d
			}
		}
		if got == InvalidNode || math.Abs(gotD-bestD) > 1e-6 {
			t.Errorf("nearest(%v) = node %d at %.2f, brute force %.2f", q, got, gotD, bestD)
		}
	}
}

// memoLive counts the points m holds, by stamp. Callers hold the
// coster's mu.
func memoLive(m *snapMemo) int {
	n := 0
	for _, e := range m.slots {
		if e.gen == m.gen {
			n++
		}
	}
	return n
}

// memoHolds reports whether m holds p. Callers hold the coster's mu.
func memoHolds(m *snapMemo, p geo.Point) bool {
	lng, lat := math.Float64bits(p.Lng), math.Float64bits(p.Lat)
	for _, e := range m.slots {
		if e.gen == m.gen && e.lng == lng && e.lat == lat {
			return true
		}
	}
	return false
}

// TestSnapMemoWipesAtCap fills the memo past snapMemoCap: it never holds
// more than that, the point that overflows it wipes it and is the one
// point left, every snap equals snapIndex.nearest, and a wiped point
// is searched again while a stored one is not.
func TestSnapMemoWipesAtCap(t *testing.T) {
	c := NewGraphCoster(GenerateGridNetwork(GridNetworkConfig{Rows: 12, Cols: 12, Seed: 3}))
	pts := randomPoints(snapMemoCap+100, geo.NYCBBox, rand.New(rand.NewSource(5)))
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, p := range pts {
		s := c.snapped(p)
		if n, d := c.snap.nearest(p); s.node != n || math.Float64bits(s.approach) != math.Float64bits(d) {
			t.Fatalf("point %d snapped to (%d, %v), nearest is (%d, %v)", k, s.node, s.approach, n, d)
		}
		if c.snaps.n > snapMemoCap {
			t.Fatalf("after point %d the memo holds %d points, cap %d", k, c.snaps.n, snapMemoCap)
		}
		switch k {
		case snapMemoCap - 1, snapMemoCap, len(pts) - 1:
			if live, want := memoLive(&c.snaps), k%snapMemoCap+1; live != want || c.snaps.n != want {
				t.Fatalf("after point %d the memo holds %d points (counted %d), want %d", k, live, c.snaps.n, want)
			}
		}
	}
	before := c.Stats().Snaps
	c.snapped(pts[snapMemoCap]) // the point that wiped the memo
	c.snapped(pts[len(pts)-1])
	c.snapped(pts[0])
	if got := c.Stats().Snaps - before; got != 1 {
		t.Errorf("two stored points and a wiped one cost %d searches, want 1", got)
	}
}

// TestSnapMemoHitAllocatesNothing: a stored point is answered from the
// table with no allocation and no search.
func TestSnapMemoHitAllocatesNothing(t *testing.T) {
	c := NewGraphCoster(GenerateGridNetwork(GridNetworkConfig{Rows: 8, Cols: 8, Seed: 5}))
	p := geo.Point{Lng: -73.95, Lat: 40.75}
	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.snapped(p)
	if allocs := testing.AllocsPerRun(100, func() {
		if c.snapped(p) != want {
			t.Fatal("hit differs from the stored snap")
		}
	}); allocs != 0 {
		t.Errorf("a memo hit allocates %v objects, want 0", allocs)
	}
	if n := c.Stats().Snaps; n != 1 {
		t.Errorf("%d searches, want 1", n)
	}
}

// TestSnapMemoNaNPoint: a point with a NaN coordinate snaps as
// snapIndex.nearest does, and, equal to no point, never hits a stored
// entry and is never stored.
func TestSnapMemoNaNPoint(t *testing.T) {
	c := NewGraphCoster(GenerateGridNetwork(GridNetworkConfig{Rows: 8, Cols: 8, Seed: 5}))
	nan := math.NaN()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range []geo.Point{{Lng: nan, Lat: 40.75}, {Lng: -73.95, Lat: nan}, {Lng: nan, Lat: nan}} {
		n, d := c.snap.nearest(p)
		for rep := 0; rep < 2; rep++ {
			if s := c.snapped(p); s.node != n || math.Float64bits(s.approach) != math.Float64bits(d) {
				t.Errorf("%v snapped to (%d, %v), nearest is (%d, %v)", p, s.node, s.approach, n, d)
			}
		}
	}
	if live := memoLive(&c.snaps); live != 0 || c.snaps.n != 0 {
		t.Errorf("memo holds %d NaN points (counted %d), want 0", live, c.snaps.n)
	}
	if n := c.Stats().Snaps; n != 6 {
		t.Errorf("%d searches for 3 NaN points snapped twice each, want 6", n)
	}
}
