package heapq

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// item carries a key the heap orders by and an id it ignores, so two
// slices that agree element for element agree on where each tie sits.
type item struct {
	key float64
	id  int
}

func itemLess(a, b item) bool { return a.key < b.key }

// ref is the reference: container/heap over the same elements.
type ref []item

func (h ref) Len() int           { return len(h) }
func (h ref) Less(i, j int) bool { return itemLess(h[i], h[j]) }
func (h ref) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ref) Push(x any)        { *h = append(*h, x.(item)) }
func (h *ref) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// same reports whether a and b hold the same elements in the same
// slots, NaN keys included.
func same(a []item, b ref) bool {
	return slices.EqualFunc(a, b, func(x, y item) bool {
		return x.id == y.id && math.Float64bits(x.key) == math.Float64bits(y.key)
	})
}

// TestMatchesContainerHeap drives heapq and container/heap with the
// same random interleaving of Init, Push, Pop and a root replaced then
// sifted down, over keys from a small range (ties are the norm) with
// NaNs mixed in. After every operation the two slices must agree
// element for element, and every pop must return the same element.
func TestMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	next := 0
	newItem := func(nan bool) item {
		next++
		if nan && rng.Intn(8) == 0 {
			return item{key: math.NaN(), id: next}
		}
		return item{key: float64(rng.Intn(6)), id: next}
	}
	for trial := 0; trial < 200; trial++ {
		nan := trial%2 == 1
		var h []item
		var r ref
		for op := 0; op < 300; op++ {
			what := "push"
			switch k := rng.Intn(10); {
			case k == 0:
				what = "init"
				for i := rng.Intn(20); i > 0; i-- {
					it := newItem(nan)
					h, r = append(h, it), append(r, it)
				}
				Init(h, itemLess)
				heap.Init(&r)
			case k < 4 && len(h) > 0:
				what = "pop"
				got, want := Pop(&h, itemLess), heap.Pop(&r).(item)
				if got.id != want.id {
					t.Fatalf("trial %d op %d: Pop = %+v, container/heap pops %+v", trial, op, got, want)
				}
			case k < 6 && len(h) > 0:
				what = "replace root"
				it := newItem(nan)
				h[0], r[0] = it, it
				Down(h, 0, itemLess)
				heap.Fix(&r, 0)
			default:
				it := newItem(nan)
				Push(&h, it, itemLess)
				heap.Push(&r, it)
			}
			if !same(h, r) {
				t.Fatalf("trial %d op %d (%s):\nheapq          %v\ncontainer/heap %v", trial, op, what, h, r)
			}
		}
	}
}

// TestPushPopAllocateNothing: on a slice that has grown, a push is an
// append within capacity and a pop a reslice.
func TestPushPopAllocateNothing(t *testing.T) {
	h := make([]item, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			Push(&h, item{key: float64((k * 37) % 64), id: k}, itemLess)
		}
		for len(h) > 0 {
			Pop(&h, itemLess)
		}
	}); n != 0 {
		t.Errorf("64 pushes + 64 pops allocated %v objects, want 0", n)
	}
}
