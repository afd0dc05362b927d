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
