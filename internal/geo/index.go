package geo

import (
	"cmp"
	"math"
	"slices"

	"mrvd/internal/heapq"
)

// Index is a grid-bucketed spatial index over densely numbered items
// (driver indices in the simulator). It supports insert, remove, move,
// and radius-bounded nearest-neighbour queries. Item state lives in
// id-indexed slices rather than maps: the batch loop queries positions
// once per candidate driver per rider, and on that path a slice load
// beats a map probe by an order of magnitude.
//
// The index logs every id whose membership or position changed since
// the caller last drained the log (DrainChanges), so what a caller keeps
// beside it — the simulator's per-batch driver table, its riders'
// candidate lists — is patched where it went stale instead of rebuilt.
// It is not safe for concurrent mutation; the batch dispatcher owns it
// single-threaded.
type Index struct {
	grid    *Grid
	buckets [][]int32  // region -> item ids
	pos     []Point    // id -> current location (valid while region >= 0)
	slot    []int32    // id -> index within its bucket
	region  []RegionID // id -> region, or absent when < 0
	count   int
	// changed lists the ids logged since the last drain; logged marks
	// them by id, so each appears once and the log never outgrows the
	// id space, even for a caller that never drains it (bench/'s query
	// probe).
	changed []int32
	logged  []bool
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

// DrainChanges appends to dst, in log order, every id that entered or
// left the index or moved since the last drain, each once, and empties
// the log. An id logged and then restored (removed and re-inserted
// where it stood) is still listed: the caller reads its current state,
// not a diff. An id not listed has the membership, region and position
// it had at the last drain.
func (ix *Index) DrainChanges(dst []int32) []int32 {
	dst = append(dst, ix.changed...)
	for _, id := range ix.changed {
		ix.logged[id] = false
	}
	ix.changed = ix.changed[:0]
	return dst
}

// logChange records that id's membership or position changed.
func (ix *Index) logChange(id int32) {
	if !ix.logged[id] {
		ix.logged[id] = true
		ix.changed = append(ix.changed, id)
	}
}

// grow ensures the id-indexed state covers id.
func (ix *Index) grow(id int32) {
	for int32(len(ix.region)) <= id {
		ix.region = append(ix.region, absent)
		ix.pos = append(ix.pos, Point{})
		ix.slot = append(ix.slot, 0)
		ix.logged = append(ix.logged, false)
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
	ix.pos[id] = p
	ix.link(id, ix.grid.Region(p))
	ix.count++
	ix.logChange(id)
}

// Remove deletes an item; unknown ids are a no-op.
func (ix *Index) Remove(id int32) {
	if !ix.has(id) {
		return
	}
	ix.unlink(id)
	ix.region[id] = absent
	ix.count--
	ix.logChange(id)
}

// Move relocates an existing item; unknown ids are inserted. Every
// change of position is logged, within a region too.
func (ix *Index) Move(id int32, p Point) {
	if !ix.has(id) {
		ix.Insert(id, p)
		return
	}
	p = ix.grid.Bounds().Clamp(p)
	if p == ix.pos[id] {
		return
	}
	ix.pos[id] = p
	ix.logChange(id)
	if r := ix.grid.Region(p); r != ix.region[id] {
		ix.unlink(id)
		ix.link(id, r)
	}
}

// link appends id to region r's bucket.
func (ix *Index) link(id int32, r RegionID) {
	ix.region[id] = r
	ix.slot[id] = int32(len(ix.buckets[r]))
	ix.buckets[r] = append(ix.buckets[r], id)
}

// unlink swap-removes id from its region's bucket: the bucket's last
// id takes its slot. The caller sets id's region.
func (ix *Index) unlink(id int32) {
	r := ix.region[id]
	b := ix.buckets[r]
	last := b[len(b)-1]
	b[ix.slot[id]] = last
	ix.slot[last] = ix.slot[id]
	ix.buckets[r] = b[:len(b)-1]
}

// Position returns an item's location and whether it is indexed.
func (ix *Index) Position(id int32) (Point, bool) {
	if !ix.has(id) {
		return Point{}, false
	}
	return ix.pos[id], true
}

// RegionOf returns the region an item currently occupies.
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

// Neighbor pairs an item id with its distance from a query point.
type Neighbor struct {
	ID       int32
	Distance float64 // meters (equirectangular)
}

// Query is a scan point's prepared geometry: what every scan of the
// point would otherwise recompute from its latitude — the least
// longitude scale Equirect applies between it and any point of the
// grid, one cosine. It bounds both the cells a scan visits and each
// item's distance from below. Index.Prepare makes it; the Append
// queries take it beside the point it was prepared for, so a caller
// that scans one point batch after batch (a waiting rider's pickup)
// pays for it once. A Query is valid only for that point and for
// indexes over grids with the same bounding box.
type Query struct {
	kx float64 // lower-bound meters per degree of longitude
}

// Prepare returns p's Query for this index.
func (ix *Index) Prepare(p Point) Query {
	return Query{kx: metersPerDegree * ix.grid.minMidCos(p.Lat)}
}

// Within returns all items within radiusMeters of p, sorted by distance
// then id (for determinism). It scans only the grid cells intersecting
// the query circle.
func (ix *Index) Within(p Point, radiusMeters float64) []Neighbor {
	return ix.AppendNearest(nil, p, ix.Prepare(p), scanAll, radiusMeters)
}

// AppendWithin appends to dst every item within radiusMeters of p,
// prepared as q, in no particular order: Within's items, unsorted, for
// a caller that orders only as much of them as it reads.
func (ix *Index) AppendWithin(dst []Neighbor, p Point, q Query, radiusMeters float64) []Neighbor {
	return ix.scan(dst, p, q, scanAll, radiusMeters)
}

// AppendListed appends, in ids' order, each of ids that Within would
// return: the indexed ones within radiusMeters of p, by the same
// test and distance. It is how a caller that keeps a query's result
// while the index changes brings it up to date from DrainChanges' ids
// without visiting a cell.
func (ix *Index) AppendListed(dst []Neighbor, p Point, q Query, radiusMeters float64, ids []int32) []Neighbor {
	for len(ids) > 0 { // visit each run of indexed ids
		n := 0
		for n < len(ids) && ix.has(ids[n]) {
			n++
		}
		dst, _ = ix.visit(dst, 0, ids[:n], p, q.kx, scanAll, radiusMeters)
		ids = ids[min(n+1, len(ids)):]
	}
	return dst
}

// Nearest returns up to k nearest items to p found within radiusMeters,
// closest first (ties by id), and nothing for k <= 0. It keeps the k
// best in a bounded max-heap while scanning — O(n log k) against
// Within's O(n log n) full sort, which matters when a dense fleet puts
// hundreds of candidates in radius and the dispatcher caps at a dozen.
// The result is identical to Within(p, radius)[:k].
func (ix *Index) Nearest(p Point, k int, radiusMeters float64) []Neighbor {
	if k <= 0 {
		return nil
	}
	return ix.AppendNearest(nil, p, ix.Prepare(p), k, radiusMeters)
}

// AppendNearest appends to dst, nearest-first, the k nearest items to
// p, prepared as q, within radiusMeters — every one in radius for
// k <= 0 — and returns the extended slice: Nearest's result for k > 0,
// Within's for k <= 0. The bounded heap lives in dst's spare capacity.
func (ix *Index) AppendNearest(dst []Neighbor, p Point, q Query, k int, radiusMeters float64) []Neighbor {
	base := len(dst)
	if k <= 0 {
		dst = ix.AppendWithin(dst, p, q, radiusMeters)
		slices.SortFunc(dst[base:], NearCmp)
		return dst
	}
	dst = ix.scan(slices.Grow(dst, k), p, q, k, radiusMeters)
	// Drain the max-heap back-to-front for ascending order.
	for h := dst[base:]; len(h) > 1; {
		far := heapq.Pop(&h, farther)
		dst[base+len(h)] = far
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

// scan is the one loop behind Within, AppendWithin and Nearest: it
// walks, row-major, the cells an item within radiusMeters of p can lie
// in, and returns dst extended per the mode k selects. The cells span
// the radius over metersPerDegree in latitude and over q.kx — no more
// than Equirect's scale for any item — in longitude, so the cell walk
// decides no membership: in radius mode scan returns exactly the
// indexed items visit accepts, and AppendListed agrees with it item
// for item.
func (ix *Index) scan(dst []Neighbor, p Point, q Query, k int, radiusMeters float64) []Neighbor {
	if !(radiusMeters >= 0) {
		return dst
	}
	span := radiusMeters * (1 + boundMargin)
	lngSpan := math.Inf(1)
	if q.kx > 0 {
		lngSpan = span / q.kx
	}
	minRow, maxRow, minCol, maxCol := ix.grid.cellSpan(p, span/metersPerDegree, lngSpan)
	base, limit := len(dst), radiusMeters
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			dst, limit = ix.visit(dst, base, ix.buckets[row*ix.grid.cols+col], p, q.kx, k, limit)
		}
	}
	return dst
}

// visit is the per-item body of scan and AppendListed: it tests each of
// ids, all indexed, against limit, extends dst per the mode k selects
// (the heap, if any, starting at base), and returns dst and the limit
// the next items face.
//
// An item is first tested against a lower bound of its Equirect
// distance — the same projection with the longitude scale fixed at its
// minimum over p's and the grid's latitudes (kx, one cosine per
// prepared point where Equirect takes one per item) — and skipped when
// even that exceeds the limit: the radius, or, once the heap holds k,
// its worst entry. Only survivors pay for the real distance, which
// alone decides membership and is what the Neighbor carries: never NaN,
// as a NaN distance fails the test.
func (ix *Index) visit(dst []Neighbor, base int, ids []int32, p Point, kx float64, k int, limit float64) ([]Neighbor, float64) {
	limit2 := limit * limit * (1 + boundMargin)
	for _, id := range ids {
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
		h := dst[base:]
		if len(h) < k {
			heapq.Push(&h, nb, farther)
			dst = dst[:base+len(h)]
		} else if NearCmp(nb, h[0]) < 0 {
			h[0] = nb
			heapq.Down(h, 0, farther)
		} else {
			continue
		}
		if len(h) == k {
			// Full: only an item no farther than the worst kept can
			// still enter.
			limit = h[0].Distance
			limit2 = limit * limit * (1 + boundMargin)
		}
	}
	return dst, limit
}

// NearCmp orders neighbours by distance then id — the one total order
// Within sorts by and Nearest's heap selects by.
func NearCmp(a, b Neighbor) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// farther is NearCmp reversed as a heapq order, that of scan's bounded
// max-heap: its root is the worst of the k best seen so far.
func farther(a, b Neighbor) bool { return NearCmp(b, a) < 0 }
