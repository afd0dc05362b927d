package geo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mrvd/internal/heapq"
)

// TestNearestMatchesWithinTruncation: the bounded-heap selection must
// return exactly Within's sorted prefix — same order, same ties.
func TestNearestMatchesWithinTruncation(t *testing.T) {
	grid := NewNYCGrid()
	ix := NewIndex(grid)
	box := grid.Bounds()
	rng := rand.New(rand.NewSource(7))
	for id := int32(0); id < 500; id++ {
		ix.Insert(id, Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		})
	}
	// buf is reused across queries the way the engine reuses its arena:
	// the append-into forms must leave what is already in it alone and
	// append exactly what the allocating forms return.
	sentinel := Neighbor{ID: -1, Distance: -1}
	buf := []Neighbor{sentinel}
	appended := func(what string, trial int, want []Neighbor) {
		t.Helper()
		if buf[0] != sentinel || len(buf)-1 != len(want) || len(want) > 0 && !reflect.DeepEqual(buf[1:], want) {
			t.Fatalf("trial %d: %s into a used buffer = %v, want the sentinel then %v", trial, what, buf, want)
		}
	}
	for trial := 0; trial < 50; trial++ {
		p := Point{
			Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		}
		radius := rng.Float64() * 8000
		buf = ix.AppendInRadius(buf[:1], p, ix.Prepare(p), radius)
		slices.SortFunc(buf[1:], NearCmp)
		appended("AppendInRadius, sorted,", trial, ix.Within(p, radius))
		for _, k := range []int{0, 1, 5, 12, 100, 1000} {
			buf = ix.AppendNearest(buf[:1], p, ix.Prepare(p), k, radius)
			appended("AppendNearest", trial, ix.Nearest(p, k, radius))
			want := ix.Within(p, radius)
			if len(want) > k {
				want = want[:k]
			}
			if k == 0 {
				want = nil
			}
			got := ix.Nearest(p, k, radius)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d radius=%.0f: Nearest diverges from Within[:k]\n got %v\nwant %v",
					trial, k, radius, got, want)
			}
		}
	}
}

func TestNearestAfterRemovals(t *testing.T) {
	grid := NewNYCGrid()
	ix := NewIndex(grid)
	c := grid.Bounds().Center()
	for id := int32(0); id < 64; id++ {
		ix.Insert(id, Point{Lng: c.Lng + float64(id)*1e-4, Lat: c.Lat})
	}
	for id := int32(0); id < 64; id += 2 {
		ix.Remove(id)
	}
	got := ix.Nearest(c, 3, 1e6)
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 3 || got[2].ID != 5 {
		t.Fatalf("Nearest after removals = %v, want ids 1,3,5", got)
	}
}

// TestQueriesMatchBruteForce: the scan's lower bound may only skip
// items the real distance would reject. Over random fleets and queries
// — query points outside the grid box and past the poles, items on cell
// borders and stacked on one point, radius 0, a radius that is exactly
// some item's distance, k beyond the fleet — Within and Nearest must
// equal a brute-force Equirect scan sorted by NearCmp, element for
// element, Distance bits included.
func TestQueriesMatchBruteForce(t *testing.T) {
	boxes := []BBox{
		NYCBBox,
		{MinLng: -0.2, MinLat: -0.15, MaxLng: 0.2, MaxLat: 0.25}, // straddles the equator
		{MinLng: 10, MinLat: 89.6, MaxLng: 11, MaxLat: 90},       // touches the pole
		{MinLng: 100, MinLat: -88.9, MaxLng: 100.5, MaxLat: -88.7},
	}
	rng := rand.New(rand.NewSource(11))
	for bi, box := range boxes {
		grid := NewGrid(box, 8, 8)
		w, h := box.MaxLng-box.MinLng, box.MaxLat-box.MinLat
		for fleet := 0; fleet < 6; fleet++ {
			ix := NewIndex(grid)
			pts := make([]Point, 20+rng.Intn(300))
			for id := range pts {
				var p Point
				switch rng.Intn(6) {
				case 0: // on a cell border, possibly a corner
					p = Point{Lng: box.MinLng + float64(rng.Intn(9))*w/8, Lat: box.MinLat + rng.Float64()*h}
					if rng.Intn(2) == 0 {
						p.Lat = box.MinLat + float64(rng.Intn(9))*h/8
					}
				case 1: // stacked on an earlier item: ties broken by id
					if id > 0 {
						p = pts[rng.Intn(id)]
						break
					}
					fallthrough
				default:
					p = Point{Lng: box.MinLng + rng.Float64()*w, Lat: box.MinLat + rng.Float64()*h}
				}
				p = box.Clamp(p) // what Insert stores
				pts[id] = p
				ix.Insert(int32(id), p)
			}
			for trial := 0; trial < 60; trial++ {
				q := Point{Lng: box.MinLng + (rng.Float64()*1.6-0.3)*w, Lat: box.MinLat + (rng.Float64()*1.6-0.3)*h}
				switch rng.Intn(8) {
				case 0:
					q = pts[rng.Intn(len(pts))]
				case 1: // far off, up to and past the poles
					q.Lat = rng.Float64()*400 - 200
				case 2:
					q.Lng += rng.Float64()*40 - 20
				}
				radius := rng.Float64() * Equirect(Point{Lng: box.MinLng, Lat: box.MinLat}, Point{Lng: box.MaxLng, Lat: box.MaxLat})
				switch rng.Intn(6) {
				case 0:
					radius = 0
				case 1:
					radius = Equirect(q, pts[rng.Intn(len(pts))])
				case 2:
					radius = math.Inf(1)
				}
				var want []Neighbor
				for id, p := range pts {
					if d := Equirect(q, p); d <= radius {
						want = append(want, Neighbor{ID: int32(id), Distance: d})
					}
				}
				slices.SortFunc(want, NearCmp)
				where := fmt.Sprintf("box %d fleet %d trial %d: q=%v radius=%v", bi, fleet, trial, q, radius)
				if got := ix.Within(q, radius); !sameNeighbors(got, want) {
					t.Fatalf("%s: Within: %s", where, firstDiff(got, want))
				}
				for _, k := range []int{1, 3, 16, len(pts), len(pts) + 7} {
					if got := ix.Nearest(q, k, radius); !sameNeighbors(got, want[:min(k, len(want))]) {
						t.Fatalf("%s: Nearest(%d): %s", where, k, firstDiff(got, want[:min(k, len(want))]))
					}
				}
			}
		}
	}
}

// TestPreparedQueriesMatchPointForms: a Query prepared once when a
// point is first seen serves every later scan of that point — the
// fleet moving, joining and leaving in between, the radius shrinking —
// with the results of the point forms, which prepare afresh, in both
// modes: AppendInRadius, sorted, equals Within, and AppendNearest
// equals Nearest. Points fall inside and outside the box and past ±89°
// of latitude; radii include 0, NaN and +Inf. The prepared field is
// bitwise the expression a scan used to evaluate per call.
func TestPreparedQueriesMatchPointForms(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, box := range []BBox{NYCBBox, {MinLng: 10, MinLat: 88.5, MaxLng: 11, MaxLat: 90}} {
		grid := NewGrid(box, 8, 8)
		ix := NewIndex(grid)
		w, h := box.MaxLng-box.MinLng, box.MaxLat-box.MinLat
		randomIn := func() Point {
			return Point{Lng: box.MinLng + rng.Float64()*w, Lat: box.MinLat + rng.Float64()*h}
		}
		for id := int32(0); id < 300; id++ {
			ix.Insert(id, randomIn())
		}
		type prepared struct {
			p Point
			q Query
		}
		var points []prepared
		for i := 0; i < 80; i++ {
			p := Point{Lng: box.MinLng + (rng.Float64()*1.6-0.3)*w, Lat: box.MinLat + (rng.Float64()*1.6-0.3)*h}
			switch i % 4 {
			case 0:
				p = randomIn()
			case 1: // beyond ±89°, and past the poles
				p.Lat = 89 + rng.Float64()*3
				if rng.Intn(2) == 0 {
					p.Lat = -p.Lat
				}
			}
			q := ix.Prepare(p)
			if math.Float64bits(q.kx) != math.Float64bits(metersPerDegree*grid.minMidCos(p.Lat)) {
				t.Fatalf("Prepare(%v) = %+v, want kx %v", p, q, metersPerDegree*grid.minMidCos(p.Lat))
			}
			points = append(points, prepared{p, q})
		}
		var buf []Neighbor
		for round := 0; round < 6; round++ {
			for n := 0; n < 60; n++ { // the fleet changes between rounds
				id := int32(rng.Intn(360))
				switch rng.Intn(3) {
				case 0:
					ix.Remove(id)
				default:
					ix.Insert(id, randomIn())
				}
			}
			for _, pp := range points {
				for _, radius := range []float64{0, math.NaN(), math.Inf(1), rng.Float64() * 4000, rng.Float64() * 40000} {
					where := fmt.Sprintf("round %d p=%v radius=%v", round, pp.p, radius)
					want := ix.Within(pp.p, radius)
					buf = ix.AppendInRadius(buf[:0], pp.p, pp.q, radius)
					if slices.SortFunc(buf, NearCmp); !sameNeighbors(buf, want) {
						t.Fatalf("%s: AppendInRadius: %s", where, firstDiff(buf, want))
					}
					for _, k := range []int{1, 5, 16} {
						want := ix.Nearest(pp.p, k, radius)
						if buf = ix.AppendNearest(buf[:0], pp.p, pp.q, k, radius); !sameNeighbors(buf, want) {
							t.Fatalf("%s: AppendNearest(%d): %s", where, k, firstDiff(buf, want))
						}
					}
				}
			}
		}
	}
}

// sameNeighbors compares ids and the distances' bit patterns.
func sameNeighbors(a, b []Neighbor) bool {
	return slices.EqualFunc(a, b, func(x, y Neighbor) bool {
		return x.ID == y.ID && math.Float64bits(x.Distance) == math.Float64bits(y.Distance)
	})
}

// firstDiff names the first position two neighbour lists differ at.
func firstDiff(got, want []Neighbor) string {
	for i := range min(len(got), len(want)) {
		if !sameNeighbors(got[i:i+1], want[i:i+1]) {
			return fmt.Sprintf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d elements, want %d", len(got), len(want))
}

// TestQueriesAnyRadius: a radius too large for the cell arithmetic's
// integer conversion spans the whole grid instead of nothing.
func TestQueriesAnyRadius(t *testing.T) {
	ix := NewIndex(NewNYCGrid())
	c := NYCBBox.Center()
	ix.Insert(0, c)
	for _, tc := range []struct {
		radius float64
		want   int
	}{
		{0, 1}, {1e3, 1}, {1e12, 1}, {1e25, 1}, {math.Inf(1), 1},
		{math.NaN(), 0}, {-1, 0}, {math.Inf(-1), 0},
	} {
		if got := len(ix.Within(c, tc.radius)); got != tc.want {
			t.Errorf("Within(radius %v) found %d, want %d", tc.radius, got, tc.want)
		}
		if got := len(ix.Nearest(c, 3, tc.radius)); got != tc.want {
			t.Errorf("Nearest(radius %v) found %d, want %d", tc.radius, got, tc.want)
		}
		if got := len(ix.grid.RegionsWithin(c, tc.radius)); tc.radius >= 1e12 && got != ix.grid.NumRegions() {
			t.Errorf("RegionsWithin(radius %v) spans %d regions, want all %d", tc.radius, got, ix.grid.NumRegions())
		}
	}
}

// TestNearestFirstDrainsWithinOrder: AppendInRadius gathers Within's
// items unordered, and draining a heapq on NearLess over them yields
// Within's exact order — equal distances (stacked items, items on the
// query point) broken by id, whatever order the buckets hold them in.
func TestNearestFirstDrainsWithinOrder(t *testing.T) {
	grid := NewNYCGrid()
	ix := NewIndex(grid)
	box := grid.Bounds()
	rng := rand.New(rand.NewSource(11))
	q := box.Center()
	var pts []Point
	for i := 0; i < 300; i++ {
		pts = append(pts, Point{
			Lng: q.Lng + (rng.Float64()-0.5)*0.05,
			Lat: q.Lat + (rng.Float64()-0.5)*0.05,
		})
	}
	// Stacks of three items on one spot, and three on the query point.
	for i := 0; i < 60; i += 3 {
		pts[i+1], pts[i+2] = pts[i], pts[i]
	}
	pts[297], pts[298], pts[299] = q, q, q
	// Insert in a shuffled id order, so no bucket lists ids ascending.
	for _, id := range rng.Perm(len(pts)) {
		ix.Insert(int32(id), pts[id])
	}
	sentinel := Neighbor{ID: -1, Distance: -1}
	for _, radius := range []float64{0, 150, 600, 1500, 3000, math.Inf(1)} {
		want := ix.Within(q, radius)
		buf := ix.AppendInRadius([]Neighbor{sentinel}, q, ix.Prepare(q), radius)
		if buf[0] != sentinel || len(buf)-1 != len(want) {
			t.Fatalf("radius %v: AppendInRadius = %d items after %v, want %d after the sentinel", radius, len(buf)-1, buf[0], len(want))
		}
		h := buf[1:]
		heapq.Init(h, NearLess)
		var got []Neighbor
		for len(h) > 0 {
			got = append(got, heapq.Pop(&h, NearLess))
		}
		if len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("radius %v: a heap on NearLess drains\n%v\nwant Within's\n%v", radius, got, want)
		}
	}
	if n := len(ix.Within(q, 0)); n != 3 {
		t.Fatalf("Within(q, 0) = %d items, want the 3 on the query point", n)
	}
}
