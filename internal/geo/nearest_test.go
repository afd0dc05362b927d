package geo

import (
	"math/rand"
	"reflect"
	"testing"
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
		buf = ix.AppendWithin(buf[:1], p, radius)
		appended("AppendWithin", trial, ix.Within(p, radius))
		for _, k := range []int{0, 1, 5, 12, 100, 1000} {
			buf = ix.AppendNearest(buf[:1], p, k, radius)
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
