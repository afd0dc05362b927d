package sim_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"mrvd/internal/dispatch"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
)

// pairDigest hashes every batch's Context.Pairs — rider, driver slot
// and the bits of both legs' costs — before handing the batch on.
type pairDigest struct {
	sim.Dispatcher
	h     hash.Hash64
	pairs int
}

func (p *pairDigest) Assign(ctx *sim.Context) []sim.Assignment {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(ctx.Pairs)))
	p.h.Write(buf[:8])
	for _, pr := range ctx.Pairs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(pr.R))
		binary.LittleEndian.PutUint32(buf[4:], uint32(pr.D))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(pr.PickupCost))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(pr.TripCost))
		p.h.Write(buf[:])
	}
	p.pairs += len(ctx.Pairs)
	return p.Dispatcher.Assign(ctx)
}

// TestCandidatePairsPinned pins every batch's valid pairs over a short
// IRG peak in each of the engine's three candidate paths: lazy pricing
// (a plain Coster, every in-radius candidate read nearest-first up to
// MaxCandidatesPerRider feasible pairs), the CandidateCap pre-filter,
// and a batch coster priced in one CostPairs call. The fleet is dense
// enough that the lazy run stops at the cap for a few hundred riders,
// so the order candidates are read in decides which pairs exist. The
// digests were recorded when every path still fully sorted its
// candidates; a change to how candidates are gathered or ordered must
// leave them unchanged.
func TestCandidatePairsPinned(t *testing.T) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 16, Cols: 16, Seed: 23})
	cases := []struct {
		name   string
		coster roadnet.Coster
		cap    int
		want   string
	}{
		{"lazy", roadnet.NewDefaultCoster(), 0, "5062 pairs a0d2d41d50a99712"},
		{"cap", roadnet.NewDefaultCoster(), 5, "2635 pairs 7c2da93b55968dc2"},
		{"batch", roadnet.NewGraphCoster(g), 0, "1602 pairs 5ceeaad52d922900"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orders, starts, grid := peakHour(28000, 600, 800)
			cfg := sim.Config{
				Grid: grid, Delta: 3, TC: 1200, Horizon: 2 * 3600,
				Coster: c.coster, CandidateCap: c.cap,
			}
			d := &pairDigest{Dispatcher: &dispatch.IRG{}, h: fnv.New64a()}
			if _, err := sim.New(cfg, orders, starts).Run(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%d pairs %016x", d.pairs, d.h.Sum64()); got != c.want {
				t.Errorf("pair digest %s, want %s", got, c.want)
			}
		})
	}
}

// riderCount hands each batch on after counting the riders it holds:
// every rider-batch, and every distinct rider.
type riderCount struct {
	sim.Dispatcher
	seen         map[*sim.Rider]bool
	riderBatches int
}

func (c *riderCount) Assign(ctx *sim.Context) []sim.Assignment {
	for _, r := range ctx.Riders {
		c.seen[r] = true
	}
	c.riderBatches += len(ctx.Riders)
	return c.Dispatcher.Assign(ctx)
}

// TestGridScansOncePerAdmission pins the candidate search's work in
// radius mode: a rider's list carries from batch to batch, so the
// engine scans the grid once per rider that reaches a batch — not once
// per batch each rider waits, which is how often a search that
// rebuilds every list scans it.
func TestGridScansOncePerAdmission(t *testing.T) {
	orders, starts, grid := peakHour(28000, 600, 800)
	e := sim.New(sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 2 * 3600}, orders, starts)
	c := &riderCount{Dispatcher: &dispatch.IRG{}, seen: map[*sim.Rider]bool{}}
	if _, err := e.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if e.GridScans() != len(c.seen) {
		t.Errorf("%d grid scans for %d riders that reached a batch, want one each", e.GridScans(), len(c.seen))
	}
	if c.riderBatches <= 2*len(c.seen) {
		t.Errorf("%d rider-batches for %d riders: too few riders wait a second batch to show the carry", c.riderBatches, len(c.seen))
	}
	t.Logf("%d grid scans for %d orders; rebuilding every list would scan %d times", e.GridScans(), len(orders), c.riderBatches)
}
