package geo

import (
	"fmt"
	"math"
)

// RegionID identifies one cell of a Grid. IDs are dense in
// [0, Grid.NumRegions()) with row-major layout: id = row*cols + col,
// where row 0 is the southernmost band.
type RegionID int

// InvalidRegion is returned for points outside the grid.
const InvalidRegion RegionID = -1

// Grid partitions a bounding box into rows x cols equal rectangles — the
// paper's "regions/grids" A = {a_1..a_n} (16x16 over NYC in Section 6.2).
type Grid struct {
	box        BBox
	rows, cols int
	cellW      float64 // degrees longitude per column
	cellH      float64 // degrees latitude per row
}

// NewGrid builds a grid over box with the given dimensions. It panics on
// non-positive dimensions or a degenerate box: both are programmer errors
// in configuration, not runtime conditions.
func NewGrid(box BBox, rows, cols int) *Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("geo: invalid grid dimensions %dx%d", rows, cols))
	}
	if box.MaxLng <= box.MinLng || box.MaxLat <= box.MinLat {
		panic(fmt.Sprintf("geo: degenerate bbox %+v", box))
	}
	return &Grid{
		box:   box,
		rows:  rows,
		cols:  cols,
		cellW: (box.MaxLng - box.MinLng) / float64(cols),
		cellH: (box.MaxLat - box.MinLat) / float64(rows),
	}
}

// NewNYCGrid returns the paper's experimental configuration: the NYC
// bounding box evenly divided into 16x16 grids.
func NewNYCGrid() *Grid { return NewGrid(NYCBBox, 16, 16) }

// Rows returns the number of latitude bands.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of longitude bands.
func (g *Grid) Cols() int { return g.cols }

// NumRegions returns rows*cols.
func (g *Grid) NumRegions() int { return g.rows * g.cols }

// Bounds returns the grid's bounding box.
func (g *Grid) Bounds() BBox { return g.box }

// Region maps a point to its region, or InvalidRegion when the point
// falls outside the grid. Points exactly on the max edge belong to the
// last row/column.
func (g *Grid) Region(p Point) RegionID {
	if !g.box.Contains(p) {
		return InvalidRegion
	}
	col := int((p.Lng - g.box.MinLng) / g.cellW)
	row := int((p.Lat - g.box.MinLat) / g.cellH)
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return RegionID(row*g.cols + col)
}

// RowCol splits a region id into its (row, col) coordinates.
func (g *Grid) RowCol(id RegionID) (row, col int) {
	return int(id) / g.cols, int(id) % g.cols
}

// CellBox returns the bounding box of one region.
func (g *Grid) CellBox(id RegionID) BBox {
	row, col := g.RowCol(id)
	return BBox{
		MinLng: g.box.MinLng + float64(col)*g.cellW,
		MinLat: g.box.MinLat + float64(row)*g.cellH,
		MaxLng: g.box.MinLng + float64(col+1)*g.cellW,
		MaxLat: g.box.MinLat + float64(row+1)*g.cellH,
	}
}

// Center returns the midpoint of one region.
func (g *Grid) Center(id RegionID) Point { return g.CellBox(id).Center() }

// Valid reports whether id names a region of this grid.
func (g *Grid) Valid(id RegionID) bool {
	return id >= 0 && int(id) < g.rows*g.cols
}

// Neighbors returns the 4-connected (N/S/E/W) neighbours of a region, in
// deterministic order. Edge cells have fewer neighbours.
func (g *Grid) Neighbors(id RegionID) []RegionID {
	row, col := g.RowCol(id)
	out := make([]RegionID, 0, 4)
	if row > 0 {
		out = append(out, RegionID((row-1)*g.cols+col))
	}
	if row < g.rows-1 {
		out = append(out, RegionID((row+1)*g.cols+col))
	}
	if col > 0 {
		out = append(out, RegionID(row*g.cols+col-1))
	}
	if col < g.cols-1 {
		out = append(out, RegionID(row*g.cols+col+1))
	}
	return out
}

// RegionsWithin returns all regions whose cell rectangle intersects the
// circle of the given radius (meters) around p, including p's own region.
func (g *Grid) RegionsWithin(p Point, radiusMeters float64) []RegionID {
	if !(radiusMeters >= 0) {
		return nil
	}
	latSpan := radiusMeters / EarthRadiusMeters * 180 / math.Pi
	minRow, maxRow, minCol, maxCol := g.cellSpan(p, latSpan, latSpan/spanCos(p.Lat))
	out := make([]RegionID, 0, (maxRow-minRow+1)*(maxCol-minCol+1))
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			out = append(out, RegionID(row*g.cols+col))
		}
	}
	return out
}

// cellSpan returns the inclusive row and column ranges of the cells
// within latSpan and lngSpan degrees of p clamped into the grid, which
// RegionsWithin enumerates and the index's scans walk, row-major. The
// spans are not negative or NaN; any other span, +Inf included, covers
// at most the whole grid.
func (g *Grid) cellSpan(p Point, latSpan, lngSpan float64) (minRow, maxRow, minCol, maxCol int) {
	clamped := g.box.Clamp(p)
	minCol = cellIndex((clamped.Lng-lngSpan-g.box.MinLng)/g.cellW, g.cols)
	maxCol = cellIndex((clamped.Lng+lngSpan-g.box.MinLng)/g.cellW, g.cols)
	minRow = cellIndex((clamped.Lat-latSpan-g.box.MinLat)/g.cellH, g.rows)
	maxRow = cellIndex((clamped.Lat+latSpan-g.box.MinLat)/g.cellH, g.rows)
	return minRow, maxRow, minCol, maxCol
}

// spanCos is the factor RegionsWithin widens a latitude span by to get
// the longitude span at latitude lat: its cosine, floored near the
// poles.
func spanCos(lat float64) float64 {
	cosLat := math.Cos(lat * math.Pi / 180)
	if cosLat < 1e-6 {
		cosLat = 1e-6
	}
	return cosLat
}

// cellIndex truncates a fractional cell coordinate into [0, n). The
// clamp happens in float: converting a coordinate beyond the integer
// range (a span of 1e25 m, +Inf) is not defined and would yield an
// empty span.
func cellIndex(x float64, n int) int {
	if !(x > 0) {
		return 0
	}
	if x >= float64(n) {
		return n - 1
	}
	return int(x)
}

// minMidCos returns a lower bound on the longitude scale Equirect
// applies between a point at latitude lat and any point of the grid
// box: the cosine of the mid-latitude farthest from the equator. Within
// a degree of a pole (or past it, or for a NaN latitude) it is 0 — the
// cosine's relative error grows without bound there, and a bound on the
// latitude term alone is still a bound.
func (g *Grid) minMidCos(lat float64) float64 {
	far := math.Max(math.Abs(lat+g.box.MinLat), math.Abs(lat+g.box.MaxLat)) / 2
	if far < 89 {
		return math.Cos(far * math.Pi / 180)
	}
	return 0
}
