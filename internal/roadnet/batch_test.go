package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mrvd/internal/geo"
)

// randomPoints samples n points uniformly from box.
func randomPoints(n int, box geo.BBox, rng *rand.Rand) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		}
	}
	return out
}

// TestBatchCostsEquivalence is the BatchCoster contract property:
// Costs(S, T)[i][j] == Cost(S[i], T[j]) bitwise, over random graphs and
// random endpoints.
// Bitwise equality (not tolerance) is what lets the engine swap the
// per-pair path for the batch path without changing dispatch results.
func TestBatchCostsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		g := GenerateGridNetwork(GridNetworkConfig{
			Rows: 6 + rng.Intn(12), Cols: 6 + rng.Intn(12),
			Seed: rng.Int63(), DropFraction: 0.1,
		})
		var c BatchCoster = NewGraphCoster(g)
		sources := randomPoints(1+rng.Intn(30), geo.NYCBBox, rng)
		targets := randomPoints(1+rng.Intn(30), geo.NYCBBox, rng)
		mat := c.Costs(sources, targets)
		if len(mat) != len(sources) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(mat), len(sources))
		}
		for i, row := range mat {
			if len(row) != len(targets) {
				t.Fatalf("trial %d: row %d has %d cols, want %d", trial, i, len(row), len(targets))
			}
			for j := range row {
				if want := c.Cost(sources[i], targets[j]); row[j] != want {
					t.Fatalf("trial %d: Costs[%d][%d] = %v, Cost = %v", trial, i, j, row[j], want)
				}
			}
		}
	}
}

// TestBatchCostsEdgeCases covers empty inputs and the empty graph.
func TestBatchCostsEdgeCases(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 4, Cols: 4, Seed: 3})
	c := NewGraphCoster(g)
	if got := c.Costs(nil, []geo.Point{{}}); len(got) != 0 {
		t.Errorf("no sources: %d rows", len(got))
	}
	got := c.Costs([]geo.Point{{}, {}}, nil)
	if len(got) != 2 || len(got[0]) != 0 {
		t.Errorf("no targets: %v", got)
	}
	empty := NewGraphCoster(NewBuilder().Build())
	mat := empty.Costs([]geo.Point{{}}, []geo.Point{{Lng: 1}})
	if !math.IsInf(mat[0][0], 1) {
		t.Errorf("empty graph cell = %v, want +Inf", mat[0][0])
	}
}

// TestBatchCostsUsesCachedTrees verifies the batch path serves sources
// from full trees the single-pair path already cached.
func TestBatchCostsUsesCachedTrees(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 8, Cols: 8, Seed: 5, DropFraction: 0})
	c := NewGraphCoster(g)
	src := g.Point(10)
	dst := g.Point(50)
	want := c.Cost(src, dst) // populates the cache for src's node
	before := c.Stats()
	mat := c.Costs([]geo.Point{src}, []geo.Point{dst})
	if mat[0][0] != want {
		t.Fatalf("batch %v != single-pair %v", mat[0][0], want)
	}
	st := statsSince(c, before)
	if st.CacheHits != 1 || st.PartialTrees != 0 {
		t.Errorf("stats = %+v, want 1 cache hit and 0 partial trees", st)
	}
}

// TestBatchCostsFewerComputations quantifies the tentpole claim: pricing
// a 200-driver x 200-order batch does at least 3x less shortest-path
// work (settled nodes) through the batch path than through per-pair
// Cost queries. The batch is drawn from a central hotspot box — the
// urban concentration the workload generator models — so truncated
// Dijkstras stop far before expanding the citywide tree.
func TestBatchCostsFewerComputations(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Seed: 11})
	box := geo.NYCBBox
	// Central quarter-per-axis hotspot box.
	cx, cy := (box.MinLng+box.MaxLng)/2, (box.MinLat+box.MaxLat)/2
	w, h := (box.MaxLng-box.MinLng)/8, (box.MaxLat-box.MinLat)/8
	hot := geo.BBox{MinLng: cx - w, MaxLng: cx + w, MinLat: cy - h, MaxLat: cy + h}
	rng := rand.New(rand.NewSource(13))
	drivers := randomPoints(200, hot, rng)
	orders := randomPoints(200, hot, rng)

	perPair := NewGraphCoster(g)
	for _, d := range drivers {
		for _, o := range orders {
			perPair.Cost(d, o)
		}
	}
	batch := NewGraphCoster(g)
	mat := batch.Costs(drivers, orders)
	for i := range drivers {
		for j := range orders {
			if want := perPair.Cost(drivers[i], orders[j]); mat[i][j] != want {
				t.Fatalf("batch[%d][%d] = %v, per-pair = %v", i, j, mat[i][j], want)
			}
		}
	}

	pp, bt := perPair.Stats(), batch.Stats()
	if pp.SettledNodes == 0 || bt.SettledNodes == 0 {
		t.Fatalf("no work recorded: per-pair %+v batch %+v", pp, bt)
	}
	ratio := float64(pp.SettledNodes) / float64(bt.SettledNodes)
	t.Logf("settled nodes: per-pair %d (%d trees), batch %d (%d partials, %d unique sources) — %.1fx fewer",
		pp.SettledNodes, pp.Trees, bt.SettledNodes, bt.PartialTrees, bt.PartialTrees, ratio)
	if ratio < 3 {
		t.Errorf("batch path settled only %.2fx fewer nodes, want >= 3x", ratio)
	}
}

// TestBatchCostsCrossBatchReuse verifies the warm-path contract: a
// repeated batch is served entirely from cached trees, a target beyond
// a cached tree's horizon extends the tree to it, and from then on
// every batch inside the new horizon hits.
func TestBatchCostsCrossBatchReuse(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 24, Cols: 24, Seed: 31, DropFraction: 0})
	c := NewGraphCoster(g)
	box := geo.NYCBBox
	cx, cy := (box.MinLng+box.MaxLng)/2, (box.MinLat+box.MaxLat)/2
	w, h := (box.MaxLng-box.MinLng)/8, (box.MaxLat-box.MinLat)/8
	hot := geo.BBox{MinLng: cx - w, MaxLng: cx + w, MinLat: cy - h, MaxLat: cy + h}
	rng := rand.New(rand.NewSource(7))
	sources := randomPoints(20, hot, rng)
	targets := randomPoints(15, hot, rng)

	want := c.Costs(sources, targets)
	st1 := c.Stats()
	if st1.PartialTrees == 0 {
		t.Fatal("cold batch issued no Dijkstra runs")
	}

	// The same batch again: all sources served from the cached partial
	// trees, no new shortest-path work.
	got := c.Costs(sources, targets)
	st2 := c.Stats()
	if st2.PartialTrees != st1.PartialTrees || st2.SettledNodes != st1.SettledNodes {
		t.Fatalf("warm repeat recomputed: %+v -> %+v", st1, st2)
	}
	if st2.CacheHits <= st1.CacheHits {
		t.Fatalf("warm repeat recorded no cache hits: %+v -> %+v", st1, st2)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("warm cell [%d][%d] = %v, cold = %v", i, j, got[i][j], want[i][j])
			}
		}
	}

	// A far corner target exceeds the cached horizons: the sources'
	// trees are extended, not rebuilt...
	far := []geo.Point{{Lng: box.MinLng, Lat: box.MinLat}}
	farBatch := c.Costs(sources, far)
	st3 := c.Stats()
	if runs := st3.PartialTrees - st2.PartialTrees; runs == 0 || st3.Resumed-st2.Resumed != runs {
		t.Fatalf("insufficient cached trees were not extended: %+v -> %+v", st2, st3)
	}
	if wantFar := c.Cost(sources[0], far[0]); farBatch[0][0] != wantFar {
		t.Fatalf("extended cell = %v, want %v", farBatch[0][0], wantFar)
	}
	// ...after which the old targets and the new one are a pure cache
	// hit.
	c.Costs(sources, append(append([]geo.Point{}, targets...), far...))
	st4 := c.Stats()
	if st4.PartialTrees != st3.PartialTrees || st4.SettledNodes != st3.SettledNodes {
		t.Fatalf("post-extension batch recomputed: %+v -> %+v", st3, st4)
	}
}

// TestBatchCostsConcurrent exercises the parallel query path under the
// race detector: concurrent Costs batches interleaved with single-pair
// Cost queries against one shared coster.
func TestBatchCostsConcurrent(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 16, Cols: 16, Seed: 17})
	c := NewGraphCoster(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 20; iter++ {
				srcs := randomPoints(5, geo.NYCBBox, rng)
				tgts := randomPoints(7, geo.NYCBBox, rng)
				mat := c.Costs(srcs, tgts)
				// Spot-check one cell against the single-pair path.
				i, j := rng.Intn(len(srcs)), rng.Intn(len(tgts))
				if want := c.Cost(srcs[i], tgts[j]); mat[i][j] != want {
					t.Errorf("concurrent batch cell %v != %v", mat[i][j], want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestExtensionLeavesPublishedTreeAlone pins copy-on-extend: a tree
// published for a source reads the same after that source's tree is
// extended, because another goroutine may still be assembling a matrix
// from it.
func TestExtensionLeavesPublishedTreeAlone(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 24, Cols: 24, Seed: 31, DropFraction: 0})
	c := NewGraphCoster(g)
	src, near, far := g.Point(300), g.Point(301), g.Point(0)
	c.Costs([]geo.Point{src}, []geo.Point{near})
	held := c.trees[300]
	if held.dist == nil || math.IsInf(held.horizon, 1) {
		t.Fatalf("expected a partial published tree, got horizon %v", held.horizon)
	}
	dist := append([]float64(nil), held.dist...)
	frontier := append([]pqItem(nil), held.frontier...)

	c.Costs([]geo.Point{src}, []geo.Point{far})
	now := c.trees[300]
	if st := c.Stats(); st.Resumed != 1 || !(now.horizon > held.horizon) {
		t.Fatalf("entry was not extended: horizon %v -> %v, stats %+v", held.horizon, now.horizon, st)
	}
	for v := range dist {
		if held.dist[v] != dist[v] {
			t.Fatalf("published dist[%d] changed from %v to %v", v, dist[v], held.dist[v])
		}
	}
	for k := range frontier {
		if held.frontier[k] != frontier[k] {
			t.Fatalf("published frontier[%d] changed from %+v to %+v", k, frontier[k], held.frontier[k])
		}
	}
}

// TestConcurrentExtensionMatchesSerial has several goroutines price
// the same few sources against different targets at once, through both
// query paths, so one source's tree is read, extended and republished
// concurrently. Every cell must equal a serial reference coster's.
// Meant to run under -race -count=10.
func TestConcurrentExtensionMatchesSerial(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 20, Cols: 20, Seed: 19})
	rng := rand.New(rand.NewSource(23))
	sources := randomPoints(6, geo.NYCBBox, rng)
	targets := randomPoints(64, geo.NYCBBox, rng)
	ref := NewGraphCoster(g)
	want := ref.Costs(sources, targets)

	c := NewGraphCoster(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 30; iter++ {
				// A window of targets: windows overlap across goroutines
				// and reach different distances from the shared sources.
				lo := rng.Intn(len(targets) - 4)
				hi := lo + 1 + rng.Intn(4)
				if w%2 == 0 {
					mat := c.Costs(sources, targets[lo:hi])
					for i := range mat {
						for j, got := range mat[i] {
							if got != want[i][lo+j] {
								t.Errorf("Costs[%d][%d] = %v, serial reference %v", i, lo+j, got, want[i][lo+j])
								return
							}
						}
					}
				} else {
					i := rng.Intn(len(sources))
					if got := c.Cost(sources[i], targets[lo]); got != want[i][lo] {
						t.Errorf("Cost(%d,%d) = %v, serial reference %v", i, lo, got, want[i][lo])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTreeTable pins the per-node tree table: a node never queried as
// a source holds no tree, a queried one holds the tree it was priced
// from, and publishing a shorter-horizon tree after a complete one
// keeps the complete one, so a slow caller cannot undo a faster one's
// extension.
func TestTreeTable(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 8, Cols: 8, Seed: 2, DropFraction: 0})
	c := NewGraphCoster(g)
	want, _ := g.ShortestPath(0, 63)
	if got := c.Cost(g.Point(0), g.Point(63)); math.Abs(got-want) > 1e-6 {
		t.Errorf("Cost(0, 63) = %v, want %v", got, want)
	}
	for n, tree := range c.trees {
		if queried := n == 0; (tree.dist != nil) != queried {
			t.Errorf("node %d holds a tree: %v, want %v", n, tree.dist != nil, queried)
		}
	}
	complete := c.trees[0]
	if !math.IsInf(complete.horizon, 1) {
		t.Fatalf("Cost left a tree of horizon %v, want a complete one", complete.horizon)
	}
	c.publish(0, spTree{dist: make([]float64, g.NumNodes()), horizon: 5})
	if got := c.trees[0]; &got.dist[0] != &complete.dist[0] {
		t.Errorf("a tree with horizon 5 replaced a complete one: horizon %v", got.horizon)
	}
}
