package mrvd

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/pool"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

// pinned is what one replay must reproduce to the bit: the Summary plus
// three ledger figures the Summary does not carry — the sum of the
// finite idle estimates, how many estimates were +Inf, and the length
// of the travel-error ledger.
type pinned struct {
	Summary       sim.Summary
	EstimateSum   float64
	InfEstimates  int
	TravelRecords int
}

func pin(m *sim.Metrics) pinned {
	p := pinned{Summary: m.Summary(), TravelRecords: len(m.TravelRecords)}
	for _, rec := range m.IdleRecords {
		switch {
		case math.IsInf(rec.Estimate, 1):
			p.InfEstimates++
		case !math.IsNaN(rec.Estimate):
			p.EstimateSum += rec.Estimate
		}
	}
	return p
}

// TestPinnedOutputs compares replays of the peak-hour fixture against
// constants recorded at the parent of PR 21 (commit f5dc6e9, before the
// engine's batch arena, the dense driver-slot table and the shared
// per-batch analyzer). The parity tests (1-shard, scenario-off,
// pooling-off, obs-off) compare two runs of the same code and cannot
// see a change both sides share — a recycled Context serving last
// batch's analyzer, a reordered candidate list; these constants can.
// A PR that means to change dispatch outcomes updates them and says so.
func TestPinnedOutputs(t *testing.T) {
	city, orders, starts := peakHourFixture()
	base := core.Options{
		City: city, NumDrivers: len(starts), Delta: 20, TC: 1200,
		Horizon: peakHourHorizon, CandidateCap: 16, Seed: 9,
	}
	with := func(edit func(*core.Options)) core.Options {
		o := base
		edit(&o)
		return o
	}
	variants := []struct {
		name string
		// bare replays on sim.Engine.Run with the overheads test's
		// config; sharded on core.Runner.ShardSession's lockstep
		// harness; the others on the product path, core.Runner.Run.
		bare, sharded bool
		opts          core.Options
		mode          core.PredictionMode
		algs          []string
	}{
		{name: "overheads-fixture", bare: true, opts: base,
			algs: []string{"IRG", "LS", "SHORT", "POLAR"}},
		{name: "two-shard-oracle", sharded: true, mode: core.PredictOracle,
			opts: with(func(o *core.Options) { o.Shards, o.Delta = 2, 5 }),
			algs: []string{"IRG", "LS", "SHORT", "POLAR"}},
		{name: "pooling", mode: core.PredictNone,
			opts: with(func(o *core.Options) { o.Pooling = pool.Config{Capacity: 2, MaxDetourSeconds: 300} }),
			algs: []string{"IRG", "LS", "SHORT", "POLAR", "POOL"}},
		{name: "scenario-on", mode: core.PredictNone,
			opts: with(func(o *core.Options) {
				o.Scenario = sim.ScenarioConfig{CancelRate: 0.1, DeclineProb: 0.05, TravelNoise: 0.2, Seed: 42}
			}),
			algs: []string{"IRG", "LS", "SHORT", "POLAR"}},
		{name: "cap0-great-circle-model", mode: core.PredictModel,
			opts: with(func(o *core.Options) { o.CandidateCap, o.Delta = 0, 3 }),
			algs: []string{"IRG", "LS", "SHORT", "POLAR"}},
		{name: "reposition", mode: core.PredictOracle,
			opts: with(func(o *core.Options) {
				o.Repositioner, o.RepositionAfter = &dispatch.QueueReposition{}, 120
			}),
			algs: []string{"IRG", "LS"}},
	}
	for _, v := range variants {
		for _, alg := range v.algs {
			t.Run(v.name+"/"+alg, func(t *testing.T) {
				var m *sim.Metrics
				d, err := core.NewDispatcher(alg, v.opts.Seed)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case v.bare:
					cfg := sim.Config{
						Grid: city.Grid(), Delta: v.opts.Delta, TC: v.opts.TC,
						Horizon: v.opts.Horizon, CandidateCap: v.opts.CandidateCap,
					}
					m, err = sim.New(cfg, orders, starts).Run(context.Background(), d)
				case v.sharded:
					r := core.NewRunnerWithOrders(v.opts, orders, starts)
					rt, serr := r.ShardSession(sim.NewSliceSource(orders), nil, v.mode, predict.HA{})
					if serr != nil {
						t.Fatal(serr)
					}
					m, err = rt.Run(context.Background(), core.ShardDispatchers(alg, v.opts.Seed, v.opts.Shards))
				default:
					r := core.NewRunnerWithOrders(v.opts, orders, starts)
					m, err = r.Run(context.Background(), d, v.mode, predict.HA{})
				}
				if err != nil {
					t.Fatal(err)
				}
				if got, want := pin(m), pinnedAtParent[v.name][alg]; got != want {
					t.Errorf("replay no longer reproduces the pinned output:\n  got:  %#v\n  want: %#v", got, want)
				}
			})
		}
	}
}

// TestPinnedRoadWork replays the peak-hour fixture, unsharded and with
// every in-radius driver a candidate (CandidateCap 0, the shape of
// bench/'s peak_road), priced on a generated road network. The Summary
// and ledger figures are pinned like every other replay here; the
// shortest-path work is pinned exactly — every CosterStats counter, so
// a kernel change that alters which nodes a run settles, or a tree
// store that forgets a tree, fails here — and as a ceiling.
// pinnedRoadWorkSettled is the CosterStats.SettledNodes this replay
// cost at the parent of PR 23 (commit 6904d87), where the engine priced
// the dense candidate-drivers x waiting-riders matrix every batch. Pricing only the pairs a batch
// reads must stay at or under three quarters of it, so the sparsity
// cannot silently regress to the dense matrix.
func TestPinnedRoadWork(t *testing.T) {
	city, orders, starts := peakHourFixture()
	coster := roadnet.NewGraphCoster(roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 7}))
	r := core.NewRunnerWithOrders(core.Options{
		City: city, NumDrivers: len(starts), Delta: 5, TC: 1200,
		Horizon: peakHourHorizon, Seed: 9, Coster: coster,
	}, orders, starts)
	d, err := core.NewDispatcher("IRG", 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Run(context.Background(), d, core.PredictOracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pin(m); got != pinnedRoadWork {
		t.Errorf("replay no longer reproduces the pinned output:\n  got:  %#v\n  want: %#v", got, pinnedRoadWork)
	}
	st := coster.Stats()
	settled := st.SettledNodes
	t.Logf("settled %d nodes, %.3fx the dense matrix's %d", settled, float64(settled)/pinnedRoadWorkSettled, int64(pinnedRoadWorkSettled))
	if st != pinnedRoadWorkExact {
		t.Errorf("coster work %+v, want %+v", st, pinnedRoadWorkExact)
	}
	if float64(settled) > 0.75*pinnedRoadWorkSettled {
		t.Errorf("settled %d nodes, more than 0.75x the %d the dense per-batch matrix cost", settled, int64(pinnedRoadWorkSettled))
	}
}

// TestPinnedRoadTripReaders replays TestPinnedRoadWork's road-priced
// peak hour with the two readers of trips whose riders hold no solo
// pair: UPPER, which ranks every waiting rider by trip, and pooling
// (POOL, capacity 2), whose insertion search bounds each candidate
// rider's detour by its trip. The constants were recorded at commit
// 4356c6f, where every admitted order's trip was priced on admission;
// a trip priced later, or on demand, must reproduce them to the bit.
func TestPinnedRoadTripReaders(t *testing.T) {
	city, orders, starts := peakHourFixture()
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: 7})
	for _, v := range []struct{ name, alg string }{{"upper", "UPPER"}, {"pooling", "POOL"}} {
		name, alg := v.name, v.alg
		t.Run(name, func(t *testing.T) {
			opts := core.Options{
				City: city, NumDrivers: len(starts), Delta: 5, TC: 1200,
				Horizon: peakHourHorizon, Seed: 9, Coster: roadnet.NewGraphCoster(g),
			}
			if alg == "POOL" {
				opts.Pooling = pool.Config{Capacity: 2, MaxDetourSeconds: 300}
			}
			d, err := core.NewDispatcher(alg, opts.Seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewRunnerWithOrders(opts, orders, starts).Run(context.Background(), d, core.PredictNone, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pin(m), pinnedRoadTripReaders[name]; got != want {
				t.Errorf("replay no longer reproduces the pinned output:\n  got:  %#v\n  want: %#v", got, want)
			}
		})
	}
}

// TestPaperScaleDayPinned replays the paper-scale day — the full city
// (282,255 orders, city seed 31), 3,000 drivers, instance seed 1,
// oracle forecasts and the default coster, the instance
// `mrvd-sim -orders 282255 -drivers 3000` runs — with IRG, LS, NEAR and
// RAND, and pins each Summary to the bit. It is the one pin where
// riders contest drivers across a whole day at the paper's fleet size:
// the peak-hour pins above run a smaller city for an hour. The IRG
// replay also pins every batch's valid pairs (irgPairDigest): here
// candidate lists run long (a fresh one averages about 35 drivers), so
// the pin covers the order the candidate search hands the pair loop.
func TestPaperScaleDayPinned(t *testing.T) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: 282255, Seed: 31})
	r := core.NewRunner(core.Options{City: city, NumDrivers: 3000, Seed: 1})
	for _, alg := range []string{"IRG", "LS", "NEAR", "RAND"} {
		d, err := core.NewDispatcher(alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		var digest *irgPairDigest
		if alg == "IRG" {
			digest = &irgPairDigest{IRG: d.(*dispatch.IRG), h: fnv.New64a()}
			d = digest
		}
		m, err := r.Run(context.Background(), d, core.PredictOracle, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pin(m), pinnedPaperDay[alg]; got != want {
			t.Errorf("%s no longer reproduces the pinned paper-scale day:\n  got:  %#v\n  want: %#v", alg, got, want)
		}
		if digest != nil {
			if got := fmt.Sprintf("%d pairs %016x", digest.pairs, digest.h.Sum64()); got != pinnedPaperDayPairs {
				t.Errorf("IRG's valid pairs on the paper-scale day digest to %s, want %s", got, pinnedPaperDayPairs)
			}
		}
	}
}

// irgPairDigest is IRG, idle estimates included, behind a hash of every
// batch's Context.Pairs — rider, driver slot and the bits of both legs'
// costs, as internal/sim's TestCandidatePairsPinned digests them.
type irgPairDigest struct {
	*dispatch.IRG
	h     hash.Hash64
	pairs int
}

func (p *irgPairDigest) Assign(ctx *sim.Context) []sim.Assignment {
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
	return p.IRG.Assign(ctx)
}
