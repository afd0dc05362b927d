package geo

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func newTestIndex() *Index { return NewIndex(NewNYCGrid()) }

func TestIndexInsertPositionRemove(t *testing.T) {
	ix := newTestIndex()
	p := Point{Lng: -73.9, Lat: 40.75}
	ix.Insert(1, p)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	got, ok := ix.Position(1)
	if !ok || got != p {
		t.Fatalf("Position = %v,%v", got, ok)
	}
	ix.Remove(1)
	if ix.Len() != 0 {
		t.Errorf("Len after remove = %d", ix.Len())
	}
	if _, ok := ix.Position(1); ok {
		t.Error("removed item still has position")
	}
	ix.Remove(1) // double remove is a no-op
}

func TestIndexInsertClampsOutside(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(1, Point{Lng: -80, Lat: 45})
	p, _ := ix.Position(1)
	if !NYCBBox.Contains(p) {
		t.Errorf("outside insert not clamped: %v", p)
	}
}

func TestIndexMoveAcrossRegions(t *testing.T) {
	ix := newTestIndex()
	a := Point{Lng: -74.02, Lat: 40.59} // SW corner region
	b := Point{Lng: -73.78, Lat: 40.91} // NE corner region
	ix.Insert(7, a)
	ra, _ := ix.RegionOf(7)
	ix.Move(7, b)
	rb, _ := ix.RegionOf(7)
	if ra == rb {
		t.Fatal("move across the city did not change region")
	}
	if ids := ix.buckets[ra]; len(ids) != 0 {
		t.Errorf("old region still holds %v", ids)
	}
	if ids := ix.buckets[rb]; len(ids) != 1 || ids[0] != 7 {
		t.Errorf("new region holds %v", ids)
	}
}

func TestIndexInsertExistingMoves(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(3, Point{Lng: -74.0, Lat: 40.6})
	ix.Insert(3, Point{Lng: -73.8, Lat: 40.9})
	if ix.Len() != 1 {
		t.Fatalf("re-insert duplicated item: Len=%d", ix.Len())
	}
}

func TestIndexMoveUnknownInserts(t *testing.T) {
	ix := newTestIndex()
	ix.Move(9, Point{Lng: -73.9, Lat: 40.7})
	if ix.Len() != 1 {
		t.Error("Move of unknown id did not insert")
	}
}

func TestIndexWithinMatchesBruteForce(t *testing.T) {
	ix := newTestIndex()
	rng := rand.New(rand.NewSource(17))
	pts := make(map[int32]Point)
	for i := int32(0); i < 500; i++ {
		p := Point{
			Lng: NYCBBox.MinLng + rng.Float64()*(NYCBBox.MaxLng-NYCBBox.MinLng),
			Lat: NYCBBox.MinLat + rng.Float64()*(NYCBBox.MaxLat-NYCBBox.MinLat),
		}
		pts[i] = p
		ix.Insert(i, p)
	}
	for trial := 0; trial < 20; trial++ {
		q := Point{
			Lng: NYCBBox.MinLng + rng.Float64()*(NYCBBox.MaxLng-NYCBBox.MinLng),
			Lat: NYCBBox.MinLat + rng.Float64()*(NYCBBox.MaxLat-NYCBBox.MinLat),
		}
		radius := 500 + rng.Float64()*5000
		got := ix.Within(q, radius)
		var want []int32
		for id, p := range pts {
			if Equirect(q, p) <= radius {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Within found %d, brute force %d (radius %.0f)",
				len(got), len(want), radius)
		}
		gotIDs := make([]int32, len(got))
		for i, n := range got {
			gotIDs[i] = n.ID
		}
		sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("Within id set mismatch")
			}
		}
	}
}

func TestIndexWithinSortedByDistance(t *testing.T) {
	ix := newTestIndex()
	rng := rand.New(rand.NewSource(23))
	for i := int32(0); i < 200; i++ {
		ix.Insert(i, Point{
			Lng: NYCBBox.MinLng + rng.Float64()*(NYCBBox.MaxLng-NYCBBox.MinLng),
			Lat: NYCBBox.MinLat + rng.Float64()*(NYCBBox.MaxLat-NYCBBox.MinLat),
		})
	}
	ns := ix.Within(NYCBBox.Center(), 20000)
	for i := 1; i < len(ns); i++ {
		if ns[i].Distance < ns[i-1].Distance {
			t.Fatal("Within results not sorted by distance")
		}
	}
}

func TestIndexNearestK(t *testing.T) {
	ix := newTestIndex()
	base := NYCBBox.Center()
	for i := int32(0); i < 10; i++ {
		ix.Insert(i, Point{Lng: base.Lng + float64(i)*0.001, Lat: base.Lat})
	}
	ns := ix.Nearest(base, 3, 50000)
	if len(ns) != 3 {
		t.Fatalf("Nearest returned %d, want 3", len(ns))
	}
	if ns[0].ID != 0 || ns[1].ID != 1 || ns[2].ID != 2 {
		t.Errorf("Nearest order = %v", ns)
	}
}

func TestIndexRemoveSwapKeepsSlots(t *testing.T) {
	// Regression guard for the swap-delete bookkeeping: remove an item in
	// the middle of a bucket and verify the swapped item is still findable.
	ix := newTestIndex()
	p := NYCBBox.Center()
	ix.Insert(1, p)
	ix.Insert(2, p)
	ix.Insert(3, p)
	ix.Remove(1)
	ix.Remove(3)
	r, _ := ix.RegionOf(2)
	ids := ix.buckets[r]
	if len(ids) != 1 || ids[0] != 2 {
		t.Errorf("bucket after swap-deletes = %v, want [2]", ids)
	}
	ix.Move(2, Point{Lng: p.Lng + 0.1, Lat: p.Lat})
	if ids := ix.buckets[r]; len(ids) != 0 {
		t.Errorf("old bucket not emptied after move: %v", ids)
	}
}

// TestIndexChangeLog: the log lists an id exactly when its membership
// or position changed since the last drain — Insert, Remove, a Move
// within or across regions (and a Move or Insert that inserts) — once
// however often it changed, and nothing for a Move to where the item
// stands, an Insert that is such a Move, or a Remove of an unknown id.
func TestIndexChangeLog(t *testing.T) {
	ix := newTestIndex()
	a := Point{Lng: -74.02, Lat: 40.59}    // SW corner region
	a2 := Point{Lng: -74.021, Lat: 40.591} // same region
	b := Point{Lng: -73.78, Lat: 40.91}    // NE corner region
	buf := []int32{-1}                     // drains append after what dst holds
	step := func(what string, want []int32, op func()) {
		t.Helper()
		op()
		buf = ix.DrainChanges(buf[:1])
		if buf[0] != -1 || !slices.Equal(buf[1:], want) {
			t.Errorf("%s: drained %v after the -1, want %v", what, buf[1:], want)
		}
		if again := ix.DrainChanges(nil); len(again) != 0 {
			t.Errorf("%s: a second drain returned %v, want nothing", what, again)
		}
	}
	step("Insert", []int32{1}, func() { ix.Insert(1, a) })
	step("Move within region", []int32{1}, func() { ix.Move(1, a2) })
	step("Move to the same point", nil, func() { ix.Move(1, a2) })
	step("Insert existing within region", []int32{1}, func() { ix.Insert(1, a) })
	step("Insert existing at the same point", nil, func() { ix.Insert(1, a) })
	step("Move across regions", []int32{1}, func() { ix.Move(1, b) })
	step("Insert existing across regions", []int32{1}, func() { ix.Insert(1, a) })
	step("Move unknown", []int32{2}, func() { ix.Move(2, b) })
	step("Remove unknown", nil, func() { ix.Remove(9) })
	step("Remove", []int32{1}, func() { ix.Remove(1) })
	step("Remove again", nil, func() { ix.Remove(1) })
	step("Insert, move across and remove", []int32{3}, func() {
		ix.Insert(3, a)
		ix.Move(3, b)
		ix.Remove(3)
	})
	step("Three ids in log order", []int32{5, 4, 1}, func() {
		ix.Insert(5, b)
		ix.Insert(4, a)
		ix.Move(5, a)
		ix.Insert(1, b)
		ix.Remove(4)
	})
	if p, _ := ix.Position(2); p != b {
		t.Errorf("Position(2) = %v, want %v", p, b)
	}
}

// TestAppendListedMatchesScan: for any ids, AppendListed appends, in
// ids' order, exactly the listed items AppendInRadius appends — the
// indexed ones within the radius, with the same distances — so a kept
// radius result patched from the change log equals a fresh scan.
func TestAppendListedMatchesScan(t *testing.T) {
	ix := newTestIndex()
	box := ix.grid.Bounds()
	rng := rand.New(rand.NewSource(29))
	random := func() Point {
		return Point{Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng), Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat)}
	}
	for id := int32(0); id < 400; id++ {
		ix.Insert(id, random())
	}
	for id := int32(0); id < 400; id += 3 {
		ix.Remove(id)
	}
	ids := make([]int32, 0, 450)
	for id := int32(449); id >= 0; id-- { // unknown ids and removed ones too
		ids = append(ids, id)
	}
	for trial := 0; trial < 60; trial++ {
		p := random()
		q := ix.Prepare(p)
		radius := rng.Float64() * 12000
		in := make(map[int32]Neighbor)
		for _, nb := range ix.AppendInRadius(nil, p, q, radius) {
			in[nb.ID] = nb
		}
		var want []Neighbor
		for _, id := range ids {
			if nb, ok := in[id]; ok {
				want = append(want, nb)
			}
		}
		if got := ix.AppendListed(nil, p, q, radius, ids); !slices.Equal(got, want) {
			t.Fatalf("trial %d: AppendListed = %v, want %v", trial, got, want)
		}
	}
}
