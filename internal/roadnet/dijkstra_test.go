package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/heapq"
)

// TestMinHeapMatchesSort drives a heapq on pqLess with random
// interleaved pushes and pops over a small key range, so duplicate
// keys are the norm: every pop must return the smallest key queued,
// and the final drain must come out in the order a sort of what is
// left would give.
func TestMinHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h []pqItem
		var queued []float64 // kept sorted
		pop := func() {
			it := heapq.Pop(&h, pqLess)
			if it.dist != float64(it.node) {
				t.Fatalf("trial %d: item %+v lost its payload", trial, it)
			}
			if it.dist != queued[0] {
				t.Fatalf("trial %d: popped %v, smallest queued is %v", trial, it.dist, queued[0])
			}
			queued = queued[1:]
		}
		for op := 0; op < 400; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			k := rng.Intn(20)
			heapq.Push(&h, pqItem{node: NodeID(k), dist: float64(k)}, pqLess)
			queued = append(queued, float64(k))
			sort.Float64s(queued)
		}
		for len(queued) > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d items left after draining everything pushed", trial, len(h))
		}
	}
}

// raceDetector is set by race_test.go when the build has -race.
var raceDetector bool

// TestDijkstraAllocations pins the allocation-free core: heap pushes
// and pops on pqLess allocate nothing once the backing array
// has grown, and a full tree on the default 48x48 grid allocates its
// dist slice and little else (the interface-boxed queue allocated
// 6,773 objects).
func TestDijkstraAllocations(t *testing.T) {
	h := make([]pqItem, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			heapq.Push(&h, pqItem{node: NodeID(k), dist: float64((k * 37) % 64)}, pqLess)
		}
		for len(h) > 0 {
			heapq.Pop(&h, pqLess)
		}
	}); n != 0 {
		t.Errorf("64 pushes + 64 pops allocated %v objects, want 0", n)
	}

	if raceDetector {
		return
	}
	g := GenerateGridNetwork(GridNetworkConfig{Seed: 1})
	g.ShortestPathTree(0) // grow the pooled queue
	if n := testing.AllocsPerRun(20, func() { g.ShortestPathTree(1000) }); n > 2 {
		t.Errorf("ShortestPathTree allocated %v objects, want <= 2", n)
	}
}

// twoIslands builds a graph of two components with no arc between
// them, so every run from one leaves the other at +Inf.
func twoIslands(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < 40; i++ {
		b.AddNode(geo.Point{Lng: float64(i), Lat: float64(i % 7)})
	}
	island := func(lo, hi int) {
		for v := lo + 1; v < hi; v++ {
			b.AddEdge(NodeID(v), NodeID(lo+rng.Intn(v-lo)), 1+rng.Float64()*9)
		}
		for k := 0; k < hi-lo; k++ {
			// Small integer costs make equal-distance ties common.
			b.AddArc(NodeID(lo+rng.Intn(hi-lo)), NodeID(lo+rng.Intn(hi-lo)), float64(rng.Intn(4)))
		}
	}
	island(0, 25)
	island(25, 40)
	return b.Build()
}

// TestExtendEquivalence is the resumable-tree property: however a tree
// is grown — any sequence of target sets, each extension continuing
// the last — every entry within its horizon is bitwise the full tree's,
// the horizon separates settled from queued exactly, the tree it grew
// from is left as it was, and draining it yields the full tree on every
// entry, +Inf included.
func TestExtendEquivalence(t *testing.T) {
	graphs := []*Graph{twoIslands(1), twoIslands(2)}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, GenerateGridNetwork(GridNetworkConfig{
			Rows: 8 + int(seed)*3, Cols: 20 - int(seed)*2, Seed: seed, DropFraction: 0.1,
		}))
	}
	rng := rand.New(rand.NewSource(9))
	for gi, g := range graphs {
		n := g.NumNodes()
		for trial := 0; trial < 20; trial++ {
			src := NodeID(rng.Intn(n))
			full := g.ShortestPathTree(src)
			var tree spTree
			totalSettled := 0
			for step := 0; step < 6 && !math.IsInf(tree.horizon, 1); step++ {
				needed := make([]bool, n)
				uncovered := 0
				for k := 1 + rng.Intn(5); k > 0; k-- {
					v := rng.Intn(n)
					if !needed[v] {
						needed[v] = true
						if tree.dist == nil || !(tree.dist[v] <= tree.horizon) {
							uncovered++
						}
					}
				}
				if uncovered == 0 {
					continue
				}
				before := spTree{
					dist:     append([]float64(nil), tree.dist...),
					frontier: append([]pqItem(nil), tree.frontier...),
				}
				next, settled := g.extend(src, tree, needed, uncovered)
				totalSettled += settled
				for v := range before.dist {
					if tree.dist[v] != before.dist[v] {
						t.Fatalf("graph %d: extend wrote dist[%d] of the tree it continued", gi, v)
					}
				}
				for k := range before.frontier {
					if tree.frontier[k] != before.frontier[k] {
						t.Fatalf("graph %d: extend wrote frontier[%d] of the tree it continued", gi, k)
					}
				}
				tree = next

				unreachable := false
				inside := 0
				for v := 0; v < n; v++ {
					if tree.dist[v] <= tree.horizon {
						inside++
						if tree.dist[v] != full[v] {
							t.Fatalf("graph %d src %d step %d: dist[%d] = %v within horizon %v, full tree has %v",
								gi, src, step, v, tree.dist[v], tree.horizon, full[v])
						}
					}
					if needed[v] {
						if math.IsInf(full[v], 1) {
							unreachable = true
						} else if !(tree.dist[v] <= tree.horizon) {
							t.Fatalf("graph %d src %d step %d: target %d not covered by horizon %v", gi, src, step, v, tree.horizon)
						}
					}
				}
				if !math.IsInf(tree.horizon, 1) {
					if inside != totalSettled {
						t.Fatalf("graph %d src %d step %d: %d entries within the horizon, %d nodes settled",
							gi, src, step, inside, totalSettled)
					}
					for _, it := range tree.frontier {
						if !(it.dist > tree.horizon) {
							t.Fatalf("graph %d src %d step %d: frontier holds key %v at horizon %v", gi, src, step, it.dist, tree.horizon)
						}
					}
				} else if len(tree.frontier) != 0 {
					t.Fatalf("graph %d src %d: drained tree kept %d frontier entries", gi, src, len(tree.frontier))
				}
				if unreachable && !math.IsInf(tree.horizon, 1) {
					t.Fatalf("graph %d src %d step %d: an unreachable target, yet horizon = %v", gi, src, step, tree.horizon)
				}
			}

			drained, settled := g.extend(src, tree, nil, 0)
			totalSettled += settled
			if !math.IsInf(drained.horizon, 1) || len(drained.frontier) != 0 {
				t.Fatalf("graph %d src %d: drained to horizon %v with %d queued", gi, src, drained.horizon, len(drained.frontier))
			}
			reached := 0
			for v := 0; v < n; v++ {
				if drained.dist[v] != full[v] {
					t.Fatalf("graph %d src %d: drained dist[%d] = %v, full tree has %v", gi, src, v, drained.dist[v], full[v])
				}
				if !math.IsInf(full[v], 1) {
					reached++
				}
			}
			if totalSettled != reached {
				t.Fatalf("graph %d src %d: %d nodes settled over all extensions, %d are reachable", gi, src, totalSettled, reached)
			}
		}
	}
}

// heapOnly returns g with its bucket width cleared, so its runs queue
// on the binary heap alone.
func heapOnly(g *Graph) *Graph {
	h := *g
	h.width, h.buckets = 0, 0
	return &h
}

// randomTies builds a connected random graph whose arcs cost whole
// seconds from 1 to 4, so equal distances are everywhere and the
// bucket width is half a second.
func randomTies(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	const n = 60
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lng: float64(i)})
	}
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 4)
	for v := 1; v < n; v++ {
		b.AddEdge(NodeID(v), NodeID(rng.Intn(v)), float64(1+rng.Intn(4)))
	}
	for k := 0; k < 2*n; k++ {
		b.AddArc(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), float64(1+rng.Intn(4)))
	}
	return b.Build()
}

// sortedFrontier returns t's frontier ordered by key, then node.
func sortedFrontier(t spTree) []pqItem {
	f := append([]pqItem(nil), t.frontier...)
	sort.Slice(f, func(i, j int) bool {
		return f[i].dist < f[j].dist || f[i].dist == f[j].dist && f[i].node < f[j].node
	})
	return f
}

// TestBucketQueueMatchesHeap grows the same trees twice, on the bucket
// queue and on the binary heap, over graphs full of ties and over the
// default 48x48 grid: every extension must settle the same number of
// nodes, stop at the same horizon with the same frontier and leave
// every distance bitwise the same. Graphs a bucket cannot key — a
// 0-cost arc, a +Inf arc, a spread past 2^16, arcs so light 1/width
// overflows — keep width 0.
func TestBucketQueueMatchesHeap(t *testing.T) {
	if g := randomTies(1); g.width != 0.5 || g.buckets != 11 {
		t.Fatalf("1..4 s arcs: width %v, %d buckets; want 0.5 and 11", g.width, g.buckets)
	}
	for name, costs := range map[string][]float64{
		"0-cost arc": {1, 0}, "+Inf arc": {1, math.Inf(1)}, "spread past 2^16": {1, 1<<16 + 1}, "no arc": nil,
		"subnormal arcs, 1/width overflows": {1e-310, 2e-310},
	} {
		b := NewBuilder()
		b.AddNode(geo.Point{})
		b.AddNode(geo.Point{})
		for _, c := range costs {
			b.AddArc(0, 1, c)
		}
		if g := b.Build(); g.width != 0 {
			t.Errorf("%s: width %v, want 0", name, g.width)
		} else if d, ok := g.ShortestPath(0, 1); ok != (len(costs) > 0) || ok && d != min(costs[0], costs[1]) {
			t.Errorf("%s: ShortestPath(0, 1) = %v, %v", name, d, ok)
		}
	}

	graphs := []*Graph{GenerateGridNetwork(GridNetworkConfig{Seed: 1})}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, randomTies(seed))
	}
	rng := rand.New(rand.NewSource(3))
	for gi, g := range graphs {
		heap := heapOnly(g)
		n := g.NumNodes()
		for trial := 0; trial < 10; trial++ {
			src := NodeID(rng.Intn(n))
			var bt, ht spTree
			for step := 0; step < 8; step++ {
				needed, uncovered := make([]bool, n), 0
				for k := 1 + rng.Intn(4); k > 0; k-- {
					if v := rng.Intn(n); !needed[v] {
						needed[v] = true
						if !bt.covers(NodeID(v)) {
							uncovered++
						}
					}
				}
				if step == 7 {
					needed, uncovered = nil, 0 // drain what is left
				} else if uncovered == 0 {
					continue
				}
				nb, sb := g.extend(src, bt, needed, uncovered)
				nh, sh := heap.extend(src, ht, needed, uncovered)
				if sb != sh || nb.horizon != nh.horizon {
					t.Fatalf("graph %d src %d step %d: buckets settled %d to horizon %v, heap %d to %v",
						gi, src, step, sb, nb.horizon, sh, nh.horizon)
				}
				for v := range nb.dist {
					if math.Float64bits(nb.dist[v]) != math.Float64bits(nh.dist[v]) {
						t.Fatalf("graph %d src %d step %d: dist[%d] = %v on buckets, %v on the heap", gi, src, step, v, nb.dist[v], nh.dist[v])
					}
				}
				if fb, fh := sortedFrontier(nb), sortedFrontier(nh); !slices.Equal(fb, fh) {
					t.Fatalf("graph %d src %d step %d: frontiers differ:\n  buckets %v\n  heap    %v", gi, src, step, fb, fh)
				}
				bt, ht = nb, nh
			}
			if !math.IsInf(bt.horizon, 1) {
				t.Fatalf("graph %d src %d: not drained, horizon %v", gi, src, bt.horizon)
			}
		}
	}
}
