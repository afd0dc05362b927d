package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/roadnet"
	"mrvd/internal/trace"
)

// pairOnlyCoster hides a coster's BatchCoster implementation, forcing
// the engine through lazy per-pair pricing.
type pairOnlyCoster struct{ c roadnet.Coster }

func (p pairOnlyCoster) Cost(a, b geo.Point) float64 { return p.c.Cost(a, b) }

// costsOnlyCoster hides a coster's PairCoster implementation: the engine
// sees a custom BatchCoster and prices batches through densePairs.
type costsOnlyCoster struct{ c roadnet.BatchCoster }

func (p costsOnlyCoster) Cost(a, b geo.Point) float64 { return p.c.Cost(a, b) }
func (p costsOnlyCoster) Costs(s, t []geo.Point) [][]float64 {
	return p.c.Costs(s, t)
}

// runTranscript replays a scenario and returns everything a pricing
// path could disturb, as text: the Summary, the idle ledger and the
// assigned/expired event stream.
func runTranscript(t *testing.T, c roadnet.Coster, orders []trace.Order, drivers []geo.Point) string {
	t.Helper()
	var b strings.Builder
	cfg := simpleConfig()
	cfg.Horizon = 4000
	cfg.Coster = c
	cfg.Observer = ObserverFuncs{
		BatchStart: func(e BatchStartEvent) {
			fmt.Fprintf(&b, "batch %d t=%v waiting=%d available=%d\n", e.Batch, e.Now, e.Waiting, e.Available)
		},
		Assigned: func(e AssignedEvent) {
			fmt.Fprintf(&b, "assigned t=%v order=%d driver=%d pickup=%v revenue=%v free=%v\n",
				e.Now, e.Rider.Order.ID, e.Driver, e.PickupCost, e.Revenue, e.FreeAt)
		},
		Expired: func(e ExpiredEvent) { fmt.Fprintf(&b, "expired t=%v order=%d\n", e.Now, e.Rider.Order.ID) },
	}
	m, err := New(cfg, orders, drivers).Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%+v\n%v\n", m.Summary(), m.IdleRecords)
	return b.String()
}

// TestEngineBatchCostingParity is the end-to-end form of the batch
// costers' equivalence contracts: a run priced through one CostPairs
// call per batch on the native graph coster (truncated, deduplicated,
// parallel Dijkstras over the candidate pairs only), the same run
// through a custom BatchCoster that has only Costs (the densePairs
// adaptor), and the same run forced through single-pair Cost calls
// must leave an identical — not approximately, identical — Summary,
// idle ledger and event stream. Randomized over scenarios; the closed
// form goes through its lazy path and the adaptor.
func TestEngineBatchCostingParity(t *testing.T) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 16, Cols: 16, Seed: 23})
	rng := rand.New(rand.NewSource(99))
	assigned := 0
	for trial := 0; trial < 4; trial++ {
		orders, drivers := randomScenario(rng)
		for _, paths := range [][]roadnet.Coster{
			{pairOnlyCoster{roadnet.NewGraphCoster(g)}, costsOnlyCoster{roadnet.NewGraphCoster(g)}, roadnet.NewGraphCoster(g)},
			{roadnet.NewDefaultCoster(), &countingBatchCoster{Coster: roadnet.NewDefaultCoster()}},
		} {
			want := runTranscript(t, paths[0], orders, drivers)
			assigned += strings.Count(want, "assigned")
			for _, c := range paths[1:] {
				if got := runTranscript(t, c, orders, drivers); got != want {
					t.Fatalf("trial %d: %T transcript differs from per-pair pricing:\n%s\nwant:\n%s", trial, c, got, want)
				}
			}
		}
	}
	if assigned == 0 {
		t.Fatal("no scenario assigned anything: the transcripts compared nothing")
	}
}

// TestEngineCandidateCap checks the k-nearest pre-filter: a capped run
// still satisfies every invariant and never builds more pairs per rider
// than the cap allows.
func TestEngineCandidateCap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	orders, drivers := randomScenario(rng)
	cfg := simpleConfig()
	cfg.Horizon = 4000
	cfg.CandidateCap = 3
	rec := &recordingObserver{}
	cfg.Observer = rec
	e := New(cfg, orders, drivers)
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	checkRunInvariants(t, e, m, rec)

	// The cap also bounds Pairs per rider below MaxCandidatesPerRider.
	cfg2 := simpleConfig()
	cfg2.CandidateCap = 1
	e2 := NewWithSource(cfg2, NewSliceSource(orders), drivers)
	e2.admitOrders(3500) // pull in (almost) the whole trace
	ctx := e2.buildContext(3500)
	if len(ctx.Riders) == 0 {
		t.Fatal("no waiting riders admitted")
	}
	perRider := map[int32]int{}
	for _, p := range ctx.Pairs {
		perRider[p.R]++
		if perRider[p.R] > 1 {
			t.Fatalf("rider %d has %d pairs with CandidateCap=1", p.R, perRider[p.R])
		}
	}
}

// TestEngineBatchCostingWarmWork pins the cross-batch reuse property:
// over a full run — where riders wait across many batches and idle
// drivers stay put — the batch path's total shortest-path work
// (settled nodes) must stay within a few percent of warm per-pair
// costing, whose cached full trees served stationary drivers before
// the batch engine existed. (Without horizon-cached batch trees this
// ratio was ~3x.) Batch trees are extended, never rebuilt, and no
// source's tree is ever dropped, so the batch path cannot settle a node
// twice for one source; the allowance is slack.
func TestEngineBatchCostingWarmWork(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	orders, drivers := randomScenario(rng)
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 30, Cols: 30, Seed: 23})

	run := func(c roadnet.Coster) {
		cfg := simpleConfig()
		cfg.Horizon = 4000
		cfg.Coster = c
		if _, err := New(cfg, orders, drivers).Run(context.Background(), takeAll{}); err != nil {
			t.Fatal(err)
		}
	}
	batchC := roadnet.NewGraphCoster(g)
	run(batchC)
	pairC := roadnet.NewGraphCoster(g)
	run(pairOnlyCoster{pairC})

	b, p := batchC.Stats(), pairC.Stats()
	t.Logf("settled nodes over the run: batch %d (%d runs, %d hits), per-pair %d (%d trees, %d hits)",
		b.SettledNodes, b.PartialTrees, b.CacheHits, p.SettledNodes, p.Trees, p.CacheHits)
	if b.SettledNodes > p.SettledNodes+p.SettledNodes/10 {
		t.Errorf("batch path settled %d nodes, more than 1.1x warm per-pair's %d", b.SettledNodes, p.SettledNodes)
	}
}

// countingBatchCoster is a custom BatchCoster — the documented contract
// is one dense Costs call per batch (think: a remote routing service
// batching RPCs).
type countingBatchCoster struct {
	roadnet.Coster
	batchCalls int
	pairCalls  int
}

func (c *countingBatchCoster) Cost(a, b geo.Point) float64 {
	c.pairCalls++
	return c.Coster.Cost(a, b)
}

func (c *countingBatchCoster) Costs(sources, targets []geo.Point) [][]float64 {
	c.batchCalls++
	out := make([][]float64, len(sources))
	for i, s := range sources {
		out[i] = make([]float64, len(targets))
		for j, t := range targets {
			out[i][j] = c.Coster.Cost(s, t)
		}
	}
	return out
}

// TestEngineHonorsCustomBatchCoster pins the API promise that a custom
// native BatchCoster is priced through batched Costs calls only — one
// per batch for the pickup-cost matrix, plus one for the trips of the
// riders that hold their first valid pair in it — never per-pair Cost
// queries. Admission prices nothing, and a rider out of every driver's
// reach is never priced.
func TestEngineHonorsCustomBatchCoster(t *testing.T) {
	pickup := center()
	orders := []trace.Order{
		{ID: 0, PostTime: 10, Pickup: pickup, Dropoff: offset(pickup, 2000), Deadline: 130},
		{ID: 1, PostTime: 10, Pickup: offset(pickup, -5000), Dropoff: pickup, Deadline: 130},
	}
	cc := &countingBatchCoster{Coster: roadnet.NewDefaultCoster()}
	cfg := simpleConfig()
	cfg.Coster = cc
	e := NewWithSource(cfg, NewSliceSource(orders), []geo.Point{offset(pickup, 400)})
	e.admitOrders(11)
	if cc.batchCalls != 0 || cc.pairCalls != 0 {
		t.Fatalf("admission made %d Costs and %d Cost calls, want none", cc.batchCalls, cc.pairCalls)
	}
	// The second batch's rider was priced in the first: one call, the
	// pickup matrix.
	for _, step := range []struct {
		now       float64
		wantCalls int
	}{{11, 2}, {14, 3}} {
		now, wantCalls := step.now, step.wantCalls
		ctx := e.buildContext(now)
		if cc.batchCalls != wantCalls {
			t.Fatalf("t=%v: custom BatchCoster got %d Costs calls in total, want %d", now, cc.batchCalls, wantCalls)
		}
		if cc.pairCalls != 0 {
			t.Fatalf("t=%v: batch pricing made %d per-pair Cost calls, want 0", now, cc.pairCalls)
		}
		if len(ctx.Pairs) != 1 || math.IsNaN(ctx.Pairs[0].TripCost) {
			t.Fatalf("t=%v: got pairs %+v, want one priced pair", now, ctx.Pairs)
		}
	}
	if trip := e.waiting[1].TripCost; !math.IsNaN(trip) {
		t.Fatalf("unpaired rider priced: %v", trip)
	}
}

// servesFirstIgnoringPickup is a custom dispatcher in UPPER's manner:
// it serves waiting rider 0 with available driver 0, ignoring pickup
// distance and never reading a trip. pairs records ctx.Pairs' length.
type servesFirstIgnoringPickup struct{ pairs *int }

func (servesFirstIgnoringPickup) Name() string { return "servesFirstIgnoringPickup" }
func (d servesFirstIgnoringPickup) Assign(ctx *Context) []Assignment {
	if len(ctx.Riders) == 0 || len(ctx.Drivers) == 0 {
		return nil
	}
	*d.pairs = len(ctx.Pairs)
	return []Assignment{{R: 0, D: 0, IgnorePickup: true}}
}

// TestApplyPricesUnpairedTrip: on a road coster, an IgnorePickup
// assignment of a rider that holds no valid pair — so no batch priced
// its trip — books the trip Cost prices as revenue, not the unpriced
// NaN.
func TestApplyPricesUnpairedTrip(t *testing.T) {
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 20, Cols: 20, Seed: 23})
	pickup := center()
	o := trace.Order{ID: 0, PostTime: 0, Pickup: pickup, Dropoff: offset(pickup, 2000), Deadline: 600}
	cfg := simpleConfig()
	cfg.Coster = roadnet.NewGraphCoster(g)
	cfg.Horizon = 3
	pairs := -1
	// The driver starts on the grid's east edge, beyond the 7.2 km a
	// 600 s deadline allows.
	m, err := New(cfg, []trace.Order{o}, []geo.Point{offset(pickup, 30000)}).Run(context.Background(), servesFirstIgnoringPickup{&pairs})
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 0 {
		t.Fatalf("the rider held %d valid pairs, want none", pairs)
	}
	want := roadnet.NewGraphCoster(g).Cost(o.Pickup, o.Dropoff)
	if m.Served != 1 || m.Revenue != want {
		t.Fatalf("served %d for revenue %v, want 1 for the trip's %v", m.Served, m.Revenue, want)
	}
}

// countedCoster counts the Cost queries it answers.
type countedCoster struct {
	roadnet.Coster
	calls *int
}

func (c countedCoster) Cost(a, b geo.Point) float64 { *c.calls++; return c.Coster.Cost(a, b) }

// TestContextPickupCostPairsAndFallback holds PickupCost to its
// contract: a valid pair's cost is the Pair's, equal to Coster.Cost and
// read without a query; any other cell — here a driver no patience
// radius reaches — is one Coster query with the same answer.
func TestContextPickupCostPairsAndFallback(t *testing.T) {
	pickup := center()
	orders := []trace.Order{{
		ID: 0, PostTime: 10, Pickup: pickup,
		Dropoff:  offset(pickup, 2000),
		Deadline: 130,
	}}
	near := offset(pickup, 400)
	far := offset(pickup, 30000) // outside any patience radius
	calls := 0
	cfg := simpleConfig()
	cfg.Coster = countedCoster{roadnet.NewDefaultCoster(), &calls}
	e := NewWithSource(cfg, NewSliceSource(orders), []geo.Point{near, far})
	e.admitOrders(11)
	ctx := e.buildContext(11)
	if len(ctx.Riders) != 1 || len(ctx.Drivers) != 2 || len(ctx.Pairs) != 1 || ctx.Pairs[0].D != 0 {
		t.Fatalf("context has %d riders / %d drivers / pairs %+v", len(ctx.Riders), len(ctx.Drivers), ctx.Pairs)
	}
	// (The engine clamps starts to the grid, so the costs are taken from
	// the drivers' actual positions, not the raw points.)
	for d, wantCalls := range []int{0, 1} {
		want := roadnet.NewDefaultCoster().Cost(ctx.Drivers[d].Pos, pickup)
		calls = 0
		if got := ctx.PickupCost(int32(d), 0); got != want || calls != wantCalls {
			t.Errorf("PickupCost(%d, 0) = %v after %d Coster queries, want %v after %d", d, got, calls, want, wantCalls)
		}
	}
}
