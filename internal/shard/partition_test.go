package shard

import (
	"reflect"
	"slices"
	"testing"

	"mrvd/internal/geo"
)

// uniform weighs every region of grid alike.
func uniform(grid *geo.Grid) []float64 {
	w := make([]float64, grid.NumRegions())
	for k := range w {
		w[k] = 1
	}
	return w
}

// shardSizes counts the regions each of n shards owns.
func shardSizes(p *Partition, n int) []int {
	sizes := make([]int, n)
	for _, s := range p.owner {
		sizes[s]++
	}
	return sizes
}

func TestPartitionCoversEveryRegionExactlyOnce(t *testing.T) {
	grid := geo.NewNYCGrid()
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 256} {
		p, err := NewWeightedPartition(grid, n, uniform(grid))
		if err != nil {
			t.Fatalf("NewWeightedPartition(%d): %v", n, err)
		}
		if len(p.owner) != grid.NumRegions() {
			t.Fatalf("n=%d: %d regions assigned, want %d", n, len(p.owner), grid.NumRegions())
		}
		// Row-major stripes: owners never decrease along the sweep, and
		// every shard holds territory.
		for k := 1; k < len(p.owner); k++ {
			if p.owner[k] < p.owner[k-1] {
				t.Fatalf("n=%d: region %d owned by shard %d after region %d's shard %d", n, k, p.owner[k], k-1, p.owner[k-1])
			}
		}
		for s, size := range shardSizes(p, n) {
			if size == 0 {
				t.Fatalf("n=%d: shard %d owns no territory", n, s)
			}
		}
	}
}

func TestPartitionBalancedWithinOneRegion(t *testing.T) {
	grid := geo.NewNYCGrid()
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 100} {
		p, err := NewWeightedPartition(grid, n, uniform(grid))
		if err != nil {
			t.Fatal(err)
		}
		sizes := shardSizes(p, n)
		if lo, hi := slices.Min(sizes), slices.Max(sizes); hi-lo > 1 {
			t.Fatalf("n=%d: shard sizes range [%d, %d], want spread <= 1", n, lo, hi)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	grid := geo.NewNYCGrid()
	a, err := NewWeightedPartition(grid, 6, uniform(grid))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWeightedPartition(grid, 6, uniform(grid))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.owner, b.owner) {
		t.Fatal("same (grid, n) produced different assignments")
	}
}

func TestWeightedPartitionCoversAndBalances(t *testing.T) {
	grid := geo.NewNYCGrid()
	// Hotspot weights: all load in a few central rows.
	weights := make([]float64, grid.NumRegions())
	for k := range weights {
		row, _ := grid.RowCol(geo.RegionID(k))
		if row >= 5 && row <= 8 {
			weights[k] = 100
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		p, err := NewWeightedPartition(grid, n, weights)
		if err != nil {
			t.Fatal(err)
		}
		// Coverage: every shard non-empty.
		for s, size := range shardSizes(p, n) {
			if size == 0 {
				t.Fatalf("n=%d: shard %d owns no territory", n, s)
			}
		}
		// Balance: no shard carries more than a fair share plus the
		// weight of one region stripe boundary can shift.
		if n > 1 {
			perShard := make([]float64, n)
			for k, w := range weights {
				perShard[p.Owner(geo.RegionID(k))] += w
			}
			sum := 0.0
			for _, w := range perShard {
				sum += w
			}
			maxRegion := 100.0
			for s, w := range perShard {
				if w > sum/float64(n)+maxRegion*float64(grid.Cols()) {
					t.Fatalf("n=%d: shard %d carries %.0f of %.0f total", n, s, w, sum)
				}
			}
		}
	}
}

func TestWeightedPartitionDeterministic(t *testing.T) {
	grid := geo.NewNYCGrid()
	weights := make([]float64, grid.NumRegions())
	for k := range weights {
		weights[k] = float64(k%7) + 0.5
	}
	a, _ := NewWeightedPartition(grid, 5, weights)
	b, _ := NewWeightedPartition(grid, 5, weights)
	if !reflect.DeepEqual(a.owner, b.owner) {
		t.Fatal("same (grid, n, weights) produced different assignments")
	}
}

func TestPartitionRejectsBadShardCounts(t *testing.T) {
	grid := geo.NewGrid(geo.BBox{MinLng: 0, MinLat: 0, MaxLng: 1, MaxLat: 1}, 2, 2)
	for _, n := range []int{0, -1, 5} {
		if _, err := NewWeightedPartition(grid, n, uniform(grid)); err == nil {
			t.Fatalf("NewWeightedPartition(%d) on 4 regions: want error", n)
		}
	}
}

// TestWeightedPartitionRejectsBadWeights: a weight vector that does not
// cover the grid, or that carries no load, is an error — there is no
// uniform fallback to hide a wrong trace behind.
func TestWeightedPartitionRejectsBadWeights(t *testing.T) {
	grid := geo.NewNYCGrid()
	for name, w := range map[string][]float64{
		"nil":      nil,
		"short":    make([]float64, 3),
		"all zero": make([]float64, grid.NumRegions()),
		"all negative": func() []float64 {
			w := uniform(grid)
			for k := range w {
				w[k] = -1
			}
			return w
		}(),
	} {
		if _, err := NewWeightedPartition(grid, 2, w); err == nil {
			t.Fatalf("%s weights accepted", name)
		}
	}
}

func TestPartitionOwnerOfClampsOutsidePoints(t *testing.T) {
	grid := geo.NewNYCGrid()
	p, err := NewWeightedPartition(grid, 4, uniform(grid))
	if err != nil {
		t.Fatal(err)
	}
	// A point far outside the box must still resolve to some shard.
	s := p.OwnerOf(geo.Point{Lng: 0, Lat: 0})
	if s < 0 || int(s) >= 4 {
		t.Fatalf("OwnerOf(outside) = %d, want a valid shard", s)
	}
}
