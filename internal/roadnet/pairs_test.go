package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mrvd/internal/geo"
)

// randomPairs draws n (source, target) index pairs, repeats allowed.
func randomPairs(n, sources, targets int, rng *rand.Rand) (src, tgt []int32) {
	for k := 0; k < n; k++ {
		src = append(src, int32(rng.Intn(sources)))
		tgt = append(tgt, int32(rng.Intn(targets)))
	}
	return src, tgt
}

// checkPairs compares one CostPairs call against single-pair queries on
// a coster of its own.
func checkPairs(t *testing.T, c PairCoster, ref Coster, sources, targets []geo.Point, src, tgt []int32) {
	t.Helper()
	out := make([]float64, len(src))
	c.CostPairs(sources, targets, src, tgt, out)
	for k, got := range out {
		want := ref.Cost(sources[src[k]], targets[tgt[k]])
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("pair %d (%d,%d): CostPairs = %v, Cost = %v", k, src[k], tgt[k], got, want)
		}
	}
}

// TestCostPairsEquivalence is the PairCoster contract property:
// out[k] == Cost(S[src[k]], T[tgt[k]]) bitwise, over random graphs with
// dropped streets, with duplicate and co-located sources, repeated
// pairs, a second batch over a warm cache, and endpoints that cannot
// be reached or cannot be snapped.
func TestCostPairsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		g := GenerateGridNetwork(GridNetworkConfig{
			Rows: 6 + rng.Intn(12), Cols: 6 + rng.Intn(12),
			Seed: rng.Int63(), DropFraction: 0.1,
		})
		c, ref := NewGraphCoster(g), NewGraphCoster(g)
		sources := randomPoints(2+rng.Intn(30), geo.NYCBBox, rng)
		targets := randomPoints(1+rng.Intn(30), geo.NYCBBox, rng)
		sources = append(sources, sources[0], g.Point(3), g.Point(3)) // the same point, the same node
		for batch := 0; batch < 3; batch++ {
			src, tgt := randomPairs(1+rng.Intn(120), len(sources), len(targets), rng)
			src, tgt = append(src, src[0]), append(tgt, tgt[0])
			checkPairs(t, c, ref, sources, targets, src, tgt)
		}
	}

	// Two components: a priced pair across them is +Inf, and the run
	// that finds that out has to drain.
	b := NewBuilder()
	west := []NodeID{b.AddNode(geo.Point{Lng: -74.0, Lat: 40.7}), b.AddNode(geo.Point{Lng: -73.99, Lat: 40.7})}
	east := []NodeID{b.AddNode(geo.Point{Lng: -73.8, Lat: 40.7}), b.AddNode(geo.Point{Lng: -73.79, Lat: 40.7})}
	b.AddEdge(west[0], west[1], 60)
	b.AddEdge(east[0], east[1], 60)
	g := b.Build()
	pts := []geo.Point{g.Point(west[0]), g.Point(west[1]), g.Point(east[0]), g.Point(east[1])}
	src, tgt := []int32{0, 0, 2, 3, 1}, []int32{1, 2, 3, 0, 1}
	c := NewGraphCoster(g)
	checkPairs(t, c, NewGraphCoster(g), pts, pts, src, tgt)
	out := make([]float64, len(src))
	c.CostPairs(pts, pts, src, tgt, out)
	if !math.IsInf(out[1], 1) || !math.IsInf(out[3], 1) || math.IsInf(out[0], 1) {
		t.Errorf("two components priced %v, want +Inf across and finite within", out)
	}

	// No graph, so no node to snap to: every pair is +Inf.
	empty := NewGraphCoster(NewBuilder().Build())
	out = []float64{0, 0}
	empty.CostPairs(pts, pts, []int32{0, 1}, []int32{1, 0}, out)
	if !math.IsInf(out[0], 1) || !math.IsInf(out[1], 1) {
		t.Errorf("empty graph priced %v, want +Inf", out)
	}

	// No pairs: nothing is written, read or computed.
	before := c.Stats()
	c.CostPairs(pts, pts, nil, nil, nil)
	c.CostPairs(nil, nil, []int32{}, []int32{}, []float64{})
	if st := statsSince(c, before); st != (CosterStats{}) {
		t.Errorf("empty pair lists did work: %+v", st)
	}
}

// hotspotBatch is a clustered batch the way the engine builds one:
// drivers and riders in the central eighth of the city per axis, each
// rider paired with its k nearest drivers.
func hotspotBatch(drivers, riders, k int, rng *rand.Rand) (sources, targets []geo.Point, src, tgt []int32) {
	box := geo.NYCBBox
	cx, cy := (box.MinLng+box.MaxLng)/2, (box.MinLat+box.MaxLat)/2
	w, h := (box.MaxLng-box.MinLng)/8, (box.MaxLat-box.MinLat)/8
	hot := geo.BBox{MinLng: cx - w, MaxLng: cx + w, MinLat: cy - h, MaxLat: cy + h}
	sources, targets = randomPoints(drivers, hot, rng), randomPoints(riders, hot, rng)
	idx := geo.NewIndex(geo.NewGrid(box, 16, 16))
	for i, p := range sources {
		idx.Insert(int32(i), p)
	}
	for j, p := range targets {
		for _, nb := range idx.Nearest(p, k, 1e5) {
			src, tgt = append(src, nb.ID), append(tgt, int32(j))
		}
	}
	return sources, targets, src, tgt
}

// TestCostPairsSettlesLess quantifies the tentpole claim on a cold
// cache: pricing each rider's 12 nearest drivers settles at least 1.5x
// fewer nodes than the dense drivers x riders matrix, because a
// driver's tree stops at its own farthest rider, not the batch's. And
// coverage is judged per source: one whose own targets lie inside its
// cached horizon is a hit in the same call that has to extend another.
func TestCostPairsSettlesLess(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Seed: 11})
	sources, targets, src, tgt := hotspotBatch(200, 80, 12, rand.New(rand.NewSource(13)))

	dense, sparse := NewGraphCoster(g), NewGraphCoster(g)
	mat := dense.Costs(sources, targets)
	out := make([]float64, len(src))
	sparse.CostPairs(sources, targets, src, tgt, out)
	for k := range out {
		if out[k] != mat[src[k]][tgt[k]] {
			t.Fatalf("pair %d: sparse %v, dense %v", k, out[k], mat[src[k]][tgt[k]])
		}
	}
	d, s := dense.Stats(), sparse.Stats()
	t.Logf("settled nodes: dense %d (%d runs), %d pairs %d (%d runs) — %.1fx fewer",
		d.SettledNodes, d.PartialTrees, len(src), s.SettledNodes, s.PartialTrees, float64(d.SettledNodes)/float64(s.SettledNodes))
	if s.SettledNodes == 0 || float64(s.SettledNodes) > float64(d.SettledNodes)/1.5 {
		t.Errorf("pair list settled %d nodes, dense matrix %d: want at least 1.5x fewer", s.SettledNodes, d.SettledNodes)
	}

	// Source a asks for a target it already reached; source b for the
	// city's far corner. Only b runs.
	a, b := src[0], src[len(src)-1]
	if a == b {
		t.Fatal("fixture: need two distinct drivers")
	}
	far := append(targets[:len(targets):len(targets)], geo.Point{Lng: geo.NYCBBox.MaxLng, Lat: geo.NYCBBox.MaxLat})
	before := sparse.Stats()
	checkPairs(t, sparse, dense, sources, far, []int32{a, b}, []int32{tgt[0], int32(len(far) - 1)})
	if st := statsSince(sparse, before); st.CacheHits != 1 || st.PartialTrees != 1 || st.Resumed != 1 {
		t.Errorf("stats = %+v, want 1 cache hit and 1 resumed partial tree", st)
	}
}

// TestCostPairsConcurrent runs CostPairs, Costs and Cost against one
// shared coster from eight goroutines under the race detector, with a
// snap memo three entries short of its wipe, so the memo is cleared and
// refilled mid-run.
func TestCostPairsConcurrent(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 16, Cols: 16, Seed: 17})
	c, ref := NewGraphCoster(g), NewGraphCoster(g)
	fill := randomPoints(snapMemoCap-3, geo.NYCBBox, rand.New(rand.NewSource(1)))
	c.mu.Lock()
	for _, p := range fill {
		c.snapped(p)
	}
	gen, n := c.snaps.gen, memoLive(&c.snaps)
	c.mu.Unlock()
	if n != snapMemoCap-3 {
		t.Fatalf("memo holds %d points, want %d", n, snapMemoCap-3)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 20; iter++ {
				srcs := randomPoints(6, geo.NYCBBox, rng)
				tgts := randomPoints(7, geo.NYCBBox, rng)
				src, tgt := randomPairs(10, len(srcs), len(tgts), rng)
				out := make([]float64, len(src))
				c.CostPairs(srcs, tgts, src, tgt, out)
				mat := c.Costs(srcs[:2], tgts[:2])
				for k := range out {
					if want := ref.Cost(srcs[src[k]], tgts[tgt[k]]); out[k] != want {
						t.Errorf("concurrent pair %v != %v", out[k], want)
						return
					}
				}
				if want := c.Cost(srcs[1], tgts[0]); mat[1][0] != want {
					t.Errorf("concurrent batch cell %v != %v", mat[1][0], want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	c.mu.Lock()
	wipes, n := c.snaps.gen-gen, memoLive(&c.snaps)
	c.mu.Unlock()
	if wipes != 1 || n == 0 || n >= snapMemoCap {
		t.Errorf("memo wiped %d times and holds %d points after the run, want it wiped once and refilled below %d", wipes, n, snapMemoCap)
	}
}

// TestCostPairsSnapsOnlyNamedEndpoints: a CostPairs call snaps the
// sources and targets its pairs name, once each, and leaves the others
// out of the memo; a dense Costs call names, and snaps, every endpoint.
// Every price stays bitwise equal to Cost.
func TestCostPairsSnapsOnlyNamedEndpoints(t *testing.T) {
	g := GenerateGridNetwork(GridNetworkConfig{Rows: 12, Cols: 12, Seed: 5})
	c, ref := NewGraphCoster(g), NewGraphCoster(g)
	rng := rand.New(rand.NewSource(3))
	sources, targets := randomPoints(20, geo.NYCBBox, rng), randomPoints(30, geo.NYCBBox, rng)
	namedSrc := func(i int) bool { return i%2 == 0 }
	namedTgt := func(j int) bool { return j < 12 && j%3 == 0 }
	var src, tgt []int32
	for i := range sources {
		for j := range targets {
			if namedSrc(i) && namedTgt(j) {
				src, tgt = append(src, int32(i)), append(tgt, int32(j))
			}
		}
	}
	checkPairs(t, c, ref, sources, targets, src, tgt)
	if n := c.Stats().Snaps; n != 10+4 {
		t.Errorf("%d searches, want one per named endpoint, 14", n)
	}
	c.mu.Lock()
	for i, p := range sources {
		if held := memoHolds(&c.snaps, p); held != namedSrc(i) {
			t.Errorf("source %d: named by a pair %v, in the memo %v", i, namedSrc(i), held)
		}
	}
	for j, p := range targets {
		if held := memoHolds(&c.snaps, p); held != namedTgt(j) {
			t.Errorf("target %d: named by a pair %v, in the memo %v", j, namedTgt(j), held)
		}
	}
	c.mu.Unlock()

	mat := c.Costs(sources, targets)
	for i := range sources {
		for j := range targets {
			if want := ref.Cost(sources[i], targets[j]); mat[i][j] != want {
				t.Fatalf("dense cell (%d,%d) = %v, Cost = %v", i, j, mat[i][j], want)
			}
		}
	}
	if n := c.Stats().Snaps; n != int64(len(sources)+len(targets)) {
		t.Errorf("%d searches after the dense call, want every endpoint once, %d", n, len(sources)+len(targets))
	}
}

// statsSince returns the counters c gained since it read before.
func statsSince(c *GraphCoster, before CosterStats) CosterStats {
	now := c.Stats()
	return CosterStats{
		Trees:        now.Trees - before.Trees,
		PartialTrees: now.PartialTrees - before.PartialTrees,
		Resumed:      now.Resumed - before.Resumed,
		SettledNodes: now.SettledNodes - before.SettledNodes,
		CacheHits:    now.CacheHits - before.CacheHits,
		Snaps:        now.Snaps - before.Snaps,
	}
}
