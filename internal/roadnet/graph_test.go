package roadnet

import (
	"math"
	"testing"

	"mrvd/internal/geo"
)

// diamond builds a 4-node test graph:
//
//	0 --1s--> 1 --1s--> 3
//	0 --5s--> 2 --1s--> 3   (and 1->2 at 0.5s)
func diamond() *Graph {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(geo.Point{Lng: float64(i) * 0.01, Lat: 40.7})
	}
	b.AddArc(0, 1, 1)
	b.AddArc(0, 2, 5)
	b.AddArc(1, 3, 1)
	b.AddArc(2, 3, 1)
	b.AddArc(1, 2, 0.5)
	return b.Build()
}

func TestBuilderCounts(t *testing.T) {
	g := diamond()
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if len(g.edges) != 5 {
		t.Errorf("%d arcs, want 5", len(g.edges))
	}
	if len(g.arcs(0)) != 2 || len(g.arcs(3)) != 0 {
		t.Errorf("out-degree of 0 = %d and of 3 = %d, want 2 and 0",
			len(g.arcs(0)), len(g.arcs(3)))
	}
}

func TestBuilderPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	b := NewBuilder()
	b.AddNode(geo.Point{})
	assertPanics("out of range", func() { b.AddArc(0, 5, 1) })
	assertPanics("negative cost", func() { b.AddArc(0, 0, -1) })
	assertPanics("NaN cost", func() { b.AddArc(0, 0, math.NaN()) })
}

func TestShortestPathDiamond(t *testing.T) {
	g := diamond()
	d, ok := g.ShortestPath(0, 3)
	if !ok || d != 2 {
		t.Errorf("ShortestPath(0,3) = %v,%v, want 2,true", d, ok)
	}
	// 3 has no outgoing arcs: nothing reachable from it.
	if _, ok := g.ShortestPath(3, 0); ok {
		t.Error("path 3->0 should not exist")
	}
	if d, ok := g.ShortestPath(2, 2); !ok || d != 0 {
		t.Errorf("self path = %v,%v, want 0,true", d, ok)
	}
	if _, ok := g.ShortestPath(-1, 2); ok {
		t.Error("invalid src should be unreachable")
	}
}

func TestShortestPathTree(t *testing.T) {
	g := diamond()
	tree := g.ShortestPathTree(0)
	want := []float64{0, 1, 1.5, 2}
	for i, w := range want {
		if tree[i] != w {
			t.Errorf("tree[%d] = %v, want %v", i, tree[i], w)
		}
	}
	tree3 := g.ShortestPathTree(3)
	for i := 0; i < 3; i++ {
		if !math.IsInf(tree3[i], 1) {
			t.Errorf("tree3[%d] = %v, want +Inf", i, tree3[i])
		}
	}
}

func TestGeneratedGridConnected(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 20, Cols: 20, Seed: 11, DropFraction: 0.1})
	tree := g.ShortestPathTree(0)
	for i, d := range tree {
		if math.IsInf(d, 1) {
			t.Fatalf("node %d unreachable: generator broke connectivity", i)
		}
	}
}

// TestZeroConfigGridIsFullLattice pins that a zero DropFraction drops
// nothing: the default 48x48 network holds every street of the lattice,
// 48·47 horizontal plus 47·48 vertical, each as two arcs.
func TestZeroConfigGridIsFullLattice(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Seed: 1})
	if got, want := g.NumNodes(), 48*48; got != want {
		t.Fatalf("%d nodes, want %d", got, want)
	}
	if got, want := len(g.edges), 2*(48*47+47*48); got != want {
		t.Fatalf("%d arcs, want %d (a full lattice)", got, want)
	}
}

func TestGeneratedGridDeterministic(t *testing.T) {
	cfg := GridNetworkConfig{Rows: 8, Cols: 8, Seed: 42}
	a := GenerateGridNetwork(cfg)
	b := GenerateGridNetwork(cfg)
	if a.NumNodes() != b.NumNodes() || len(a.edges) != len(b.edges) {
		t.Fatal("same seed produced different graphs")
	}
	da := a.ShortestPathTree(0)
	db := b.ShortestPathTree(0)
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("same seed produced different costs")
		}
	}
}

func TestGeneratedGridTravelTimePlausible(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Seed: 1})
	// Crossing the full NYC box (~60km of L1) at the ~11 m/s default
	// speed should take roughly 90 minutes; sanity-check loosely.
	d, ok := g.ShortestPath(0, NodeID(g.NumNodes()-1))
	if !ok {
		t.Fatal("corners unreachable")
	}
	if d < 3000 || d > 12000 {
		t.Errorf("corner-to-corner travel = %.0f s, want 3000..12000", d)
	}
}
