package geo

import (
	"cmp"
	"math"
	"slices"
)

// Index is a grid-bucketed spatial index over densely numbered items
// (driver indices in the simulator). It supports insert, remove, move,
// and radius-bounded nearest-neighbour queries. Item state lives in
// id-indexed slices rather than maps: the batch loop queries positions
// once per candidate driver per rider, and on that path a slice load
// beats a map probe by an order of magnitude. It is not safe for
// concurrent mutation; the batch dispatcher owns it single-threaded.
type Index struct {
	grid    *Grid
	buckets [][]int32  // region -> item ids
	pos     []Point    // id -> current location (valid while region >= 0)
	slot    []int32    // id -> index within its bucket
	region  []RegionID // id -> region, or absent when < 0
	count   int
}

// absent marks an id with no indexed item.
const absent RegionID = -1

// NewIndex builds an empty index over the given grid.
func NewIndex(grid *Grid) *Index {
	return &Index{
		grid:    grid,
		buckets: make([][]int32, grid.NumRegions()),
	}
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return ix.count }

// grow ensures the id-indexed state covers id.
func (ix *Index) grow(id int32) {
	for int32(len(ix.region)) <= id {
		ix.region = append(ix.region, absent)
		ix.pos = append(ix.pos, Point{})
		ix.slot = append(ix.slot, 0)
	}
}

// has reports whether id is currently indexed.
func (ix *Index) has(id int32) bool {
	return id >= 0 && int(id) < len(ix.region) && ix.region[id] >= 0
}

// Insert adds an item at p. Points outside the grid are clamped to it,
// matching how the simulator treats drivers that drift past the city
// boundary. Inserting an existing id moves it instead.
func (ix *Index) Insert(id int32, p Point) {
	if ix.has(id) {
		ix.Move(id, p)
		return
	}
	ix.grow(id)
	p = ix.grid.Bounds().Clamp(p)
	r := ix.grid.Region(p)
	ix.pos[id] = p
	ix.region[id] = r
	ix.slot[id] = int32(len(ix.buckets[r]))
	ix.buckets[r] = append(ix.buckets[r], id)
	ix.count++
}

// Remove deletes an item; unknown ids are a no-op.
func (ix *Index) Remove(id int32) {
	if !ix.has(id) {
		return
	}
	r := ix.region[id]
	b := ix.buckets[r]
	i := ix.slot[id]
	last := int32(len(b) - 1)
	if i != last {
		moved := b[last]
		b[i] = moved
		ix.slot[moved] = i
	}
	ix.buckets[r] = b[:last]
	ix.region[id] = absent
	ix.count--
}

// Move relocates an existing item; unknown ids are inserted.
func (ix *Index) Move(id int32, p Point) {
	if !ix.has(id) {
		ix.Insert(id, p)
		return
	}
	p = ix.grid.Bounds().Clamp(p)
	newR := ix.grid.Region(p)
	oldR := ix.region[id]
	ix.pos[id] = p
	if newR == oldR {
		return
	}
	// Remove from old bucket, append to new.
	b := ix.buckets[oldR]
	i := ix.slot[id]
	last := int32(len(b) - 1)
	if i != last {
		moved := b[last]
		b[i] = moved
		ix.slot[moved] = i
	}
	ix.buckets[oldR] = b[:last]
	ix.region[id] = newR
	ix.slot[id] = int32(len(ix.buckets[newR]))
	ix.buckets[newR] = append(ix.buckets[newR], id)
}

// Position returns an item's location and whether it is indexed.
func (ix *Index) Position(id int32) (Point, bool) {
	if !ix.has(id) {
		return Point{}, false
	}
	return ix.pos[id], true
}

// Region returns the region an item currently occupies.
func (ix *Index) RegionOf(id int32) (RegionID, bool) {
	if !ix.has(id) {
		return absent, false
	}
	return ix.region[id], true
}

// Regions returns the region of every id the index has ever held, by
// id: negative where the id is not indexed now. It is the cheapest
// ordered enumeration of the indexed items. The returned slice is owned
// by the index; callers must not mutate it.
func (ix *Index) Regions() []RegionID { return ix.region }

// InRegion returns the ids bucketed in one region. The returned slice is
// owned by the index; callers must not mutate it.
func (ix *Index) InRegion(r RegionID) []int32 {
	if !ix.grid.Valid(r) {
		return nil
	}
	return ix.buckets[r]
}

// Neighbor pairs an item id with its distance from a query point.
type Neighbor struct {
	ID       int32
	Distance float64 // meters (equirectangular)
}

// Within returns all items within radiusMeters of p, sorted by distance
// then id (for determinism). It scans only the grid cells intersecting
// the query circle.
func (ix *Index) Within(p Point, radiusMeters float64) []Neighbor {
	return ix.AppendWithin(nil, p, radiusMeters)
}

// AppendWithin appends Within's result to dst and returns the extended
// slice — the form for callers that query every batch and keep the
// buffer. Only the appended tail is sorted.
func (ix *Index) AppendWithin(dst []Neighbor, p Point, radiusMeters float64) []Neighbor {
	base := len(dst)
	dst = ix.scan(dst, p, scanAll, radiusMeters)
	slices.SortFunc(dst[base:], nearCmp)
	return dst
}

// Nearest returns up to k nearest items to p found within radiusMeters,
// closest first (ties by id). It keeps the k best in a bounded
// max-heap while scanning — O(n log k) against Within's O(n log n)
// full sort, which matters when a dense fleet puts hundreds of
// candidates in radius and the dispatcher caps at a dozen. The result
// is identical to Within(p, radius)[:k].
func (ix *Index) Nearest(p Point, k int, radiusMeters float64) []Neighbor {
	return ix.AppendNearest(nil, p, k, radiusMeters)
}

// AppendNearest appends Nearest's result to dst and returns the
// extended slice; the heap lives in dst's spare capacity.
func (ix *Index) AppendNearest(dst []Neighbor, p Point, k int, radiusMeters float64) []Neighbor {
	if k <= 0 {
		return dst
	}
	base := len(dst)
	dst = ix.scan(slices.Grow(dst, k), p, k, radiusMeters)
	// Drain the max-heap back-to-front for ascending order.
	h := nearHeap(dst[base:])
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h = h[:n]
		h.siftDown(0)
	}
	return dst
}

// scanAll is scan's mode that appends every item in radius, unordered;
// k > 0 keeps the k best as a max-heap on dst's tail, which must have k
// spare cells.
const scanAll = 0

// metersPerDegree is Equirect's scale along a meridian.
const metersPerDegree = EarthRadiusMeters * math.Pi / 180

// boundMargin is the relative slack scan's squared lower bound gets
// over the squared limit: nine orders of magnitude above the rounding
// either side accumulates, and far below anything that would let an
// item through that a cosine then has to reject.
const boundMargin = 1e-9

// scan is the one loop behind Within and Nearest: it walks the cells
// cellSpan gives, row-major, and returns dst extended per the mode k
// selects.
//
// An item is first tested against a lower bound of its Equirect
// distance — the same projection with the longitude scale fixed at its
// minimum over p's and the grid's latitudes, one cosine per query where
// Equirect takes one per item — and skipped when even that exceeds the
// limit: the radius, or, once the heap holds k, its worst entry. Only
// survivors pay for the real distance, which alone decides membership
// and is what the Neighbor carries.
func (ix *Index) scan(dst []Neighbor, p Point, k int, radiusMeters float64) []Neighbor {
	minRow, maxRow, minCol, maxCol, ok := ix.grid.cellSpan(p, radiusMeters)
	if !ok {
		return dst
	}
	base := len(dst)
	kx := metersPerDegree * ix.grid.minMidCos(p.Lat)
	limit := radiusMeters
	limit2 := limit * limit * (1 + boundMargin)
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			for _, id := range ix.buckets[row*ix.grid.cols+col] {
				q := ix.pos[id]
				x, y := (q.Lng-p.Lng)*kx, (q.Lat-p.Lat)*metersPerDegree
				if x*x+y*y > limit2 {
					continue
				}
				d := Equirect(p, q)
				if !(d <= limit) {
					continue
				}
				nb := Neighbor{ID: id, Distance: d}
				if k == scanAll {
					dst = append(dst, nb)
					continue
				}
				h := nearHeap(dst[base:])
				if len(h) < k {
					h.push(nb)
					dst = dst[:base+len(h)]
				} else if nearLess(nb, h[0]) {
					h.replaceTop(nb)
				} else {
					continue
				}
				if len(h) == k {
					// Full: only an item no farther than the worst kept
					// can still enter.
					limit = h[0].Distance
					limit2 = limit * limit * (1 + boundMargin)
				}
			}
		}
	}
	return dst
}

// nearCmp orders neighbours by distance then id — the one total order
// Within sorts by and Nearest's heap selects by.
func nearCmp(a, b Neighbor) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func nearLess(a, b Neighbor) bool { return nearCmp(a, b) < 0 }

// nearHeap is a bounded max-heap on nearLess: the root is the worst of
// the k best seen so far.
type nearHeap []Neighbor

func (h *nearHeap) push(nb Neighbor) {
	*h = append(*h, nb)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nearLess((*h)[parent], (*h)[i]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *nearHeap) replaceTop(nb Neighbor) {
	(*h)[0] = nb
	h.siftDown(0)
}

func (h nearHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && nearLess(h[big], h[l]) {
			big = l
		}
		if r < n && nearLess(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
