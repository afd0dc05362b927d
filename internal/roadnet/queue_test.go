package roadnet

import (
	"slices"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/heapq"
)

// FuzzBucketQueue drives the queue the way dijkstra does: every key
// pushed lies one to four lightest arcs past a key popped from the
// bucket being drained, on a quarter-second grid, so ties are the
// norm. Against a sorted reference of what is queued, an ordered pop
// must return the least key, and a plain drain exactly the least keys,
// within one bucket width and tied with no key left behind. A reload
// from the frontier must keep everything queued. With zero width (the
// graph has a 0-cost arc) every pop is ordered and pushes may tie the
// key just popped.
func FuzzBucketQueue(f *testing.F) {
	f.Add([]byte{2, 0, 4, 8, 12, 3, 1, 5, 9, 6, 7, 11, 3, 2, 3}, false)
	f.Add([]byte{2, 0, 4, 8, 12, 3, 1, 5, 9, 6, 7, 11, 3, 2, 3}, true)
	f.Add([]byte{2, 0, 0, 0, 48, 48, 4, 3, 0, 0, 3, 3}, false)
	f.Add([]byte{2, 0, 4, 64, 6, 64, 6, 64, 2, 2, 2}, false) // a turn of the ring
	f.Fuzz(func(t *testing.T, ops []byte, zero bool) {
		b := NewBuilder()
		b.AddNode(geo.Point{})
		b.AddNode(geo.Point{})
		b.AddArc(0, 1, 1)
		b.AddArc(1, 0, 4)
		if zero {
			b.AddArc(0, 0, 0)
		}
		g := b.Build()
		if zero != (g.width == 0) {
			t.Fatalf("zero-cost arc %v, width %v", zero, g.width)
		}
		var q bucketQueue
		q.load(g, nil)
		var dist, ref []float64 // dist[node] is its one key; ref what is queued, sorted
		push := func(k float64) {
			dist = append(dist, k)
			q.push(pqItem{node: NodeID(len(dist) - 1), dist: k})
			i, _ := slices.BinarySearch(ref, k)
			ref = slices.Insert(ref, i, k)
		}
		popped := -1.0 // the last key popped; none since a (re)load
		pop := func(op byte) {
			bk := q.least()
			if (bk == nil) != (len(ref) == 0) {
				t.Fatalf("least bucket %v with %d keys queued", bk, len(ref))
			}
			if bk == nil {
				popped = -1 // a run ends once its queue is empty
				return
			}
			if zero || op&4 != 0 {
				heapq.Init(*bk, pqLess)
				if it := heapq.Pop(bk, pqLess); it.dist != ref[0] {
					t.Fatalf("ordered pop gave %v, least queued is %v", it.dist, ref[0])
				}
				popped, ref = ref[0], ref[1:]
				return
			}
			items := *bk
			*bk = items[:0]
			keys := make([]float64, len(items))
			for i, it := range items {
				keys[i] = it.dist
			}
			slices.Sort(keys)
			if !slices.Equal(keys, ref[:len(keys)]) || keys[len(keys)-1]-keys[0] >= g.width ||
				len(ref) > len(keys) && ref[len(keys)] == keys[len(keys)-1] {
				t.Fatalf("drained bucket %v, queued %v", keys, ref)
			}
			popped, ref = keys[int(op>>3)%len(keys)], ref[len(keys):]
		}
		push(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				if popped >= 0 {
					push(popped + max(g.width*2, float64(op>>2%17)*0.25))
				}
			case 2:
				pop(op)
			case 3:
				if op&4 != 0 {
					pop(op)
					continue
				}
				frontier := q.frontier(dist)
				q.load(g, frontier)
				popped = -1
				keys := make([]float64, len(frontier))
				for i, it := range frontier {
					keys[i] = it.dist
				}
				if slices.Sort(keys); !slices.Equal(keys, ref) {
					t.Fatalf("frontier %v, queued %v", keys, ref)
				}
			}
		}
		for len(ref) > 0 {
			pop(0)
		}
		if q.least() != nil {
			t.Fatal("a bucket left after the reference drained")
		}
	})
}
