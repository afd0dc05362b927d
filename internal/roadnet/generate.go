package roadnet

import (
	"math/rand"

	"mrvd/internal/geo"
)

// GridNetworkConfig parameterizes the synthetic Manhattan-style network
// generator over geo.NYCBBox.
type GridNetworkConfig struct {
	// Rows and Cols are the number of street intersections along each
	// axis; a value below 2 becomes 48 (a block every ~470m over the
	// NYC box).
	Rows, Cols int
	// DropFraction removes about this fraction of interior edges to
	// break the perfect lattice (rivers, parks, one-ways). The zero value
	// drops nothing, so every network built from a zero config is the
	// full lattice; a negative value or one of 0.5 or more becomes 0.05.
	// Edges on the boundary ring are never dropped; no other connectivity
	// check is made.
	DropFraction float64
	// Seed drives all randomness in generation.
	Seed int64
}

// gridSpeedJitter is the relative standard deviation of per-street
// speed around DefaultSpeedMPS (congestion heterogeneity).
const gridSpeedJitter = 0.15

func (c GridNetworkConfig) withDefaults() GridNetworkConfig {
	if c.Rows <= 1 {
		c.Rows = 48
	}
	if c.Cols <= 1 {
		c.Cols = 48
	}
	if c.DropFraction < 0 || c.DropFraction >= 0.5 {
		c.DropFraction = 0.05
	}
	return c
}

// GenerateGridNetwork builds a Manhattan-style lattice road network over
// geo.NYCBBox. Every intersection is connected to its 4-neighbours by
// bidirectional streets whose travel time is distance divided by a
// jittered street speed. With a positive DropFraction, interior edges
// are dropped at random so that shortest paths are not perfectly L1.
// Every interior edge draws a uniform for its drop decision even when
// DropFraction is 0.
func GenerateGridNetwork(cfg GridNetworkConfig) *Graph {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()
	nodeAt := make([]NodeID, cfg.Rows*cfg.Cols)
	box := geo.NYCBBox
	dLng := (box.MaxLng - box.MinLng) / float64(cfg.Cols-1)
	dLat := (box.MaxLat - box.MinLat) / float64(cfg.Rows-1)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			p := geo.Point{
				Lng: box.MinLng + float64(c)*dLng,
				Lat: box.MinLat + float64(r)*dLat,
			}
			nodeAt[r*cfg.Cols+c] = b.AddNode(p)
		}
	}
	speed := func() float64 {
		s := DefaultSpeedMPS * (1 + gridSpeedJitter*rng.NormFloat64())
		minS := DefaultSpeedMPS * 0.3
		if s < minS {
			s = minS
		}
		return s
	}
	addStreet := func(u, v NodeID) {
		d := geo.Equirect(b.pts[u], b.pts[v])
		b.AddEdge(u, v, d/speed())
	}
	// Horizontal and vertical streets. Boundary-ring edges are never
	// dropped; interior drops are not checked for connectivity, so a
	// positive DropFraction can leave a node cut off.
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			u := nodeAt[r*cfg.Cols+c]
			if c+1 < cfg.Cols {
				v := nodeAt[r*cfg.Cols+c+1]
				interior := r > 0 && r < cfg.Rows-1
				if !interior || rng.Float64() >= cfg.DropFraction {
					addStreet(u, v)
				}
			}
			if r+1 < cfg.Rows {
				v := nodeAt[(r+1)*cfg.Cols+c]
				interior := c > 0 && c < cfg.Cols-1
				if !interior || rng.Float64() >= cfg.DropFraction {
					addStreet(u, v)
				}
			}
		}
	}
	return b.Build()
}
