package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/pool"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// testInstance generates a small deterministic problem instance.
func testInstance(t *testing.T, orders, fleet int) ([]trace.Order, []geo.Point, *geo.Grid) {
	t.Helper()
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: orders, Seed: 17})
	rng := rand.New(rand.NewSource(5))
	day := city.GenerateDay(0, rng)
	starts := city.InitialDrivers(fleet, day, rng)
	return day, starts, city.Grid()
}

// eventLog records a scalar projection of every observer event a plain
// run fires, so two runs can be compared for stream-identical behaviour.
type eventLog struct {
	sim.ObserverFuncs
	entries []string
}

func (l *eventLog) OnBatchStart(e sim.BatchStartEvent) {
	l.entries = append(l.entries, fmt.Sprintf("batch %d t=%.0f w=%d a=%d", e.Batch, e.Now, e.Waiting, e.Available))
}
func (l *eventLog) OnAssigned(e sim.AssignedEvent) {
	l.entries = append(l.entries, fmt.Sprintf("assign o=%d d=%d t=%.0f pc=%.3f rev=%.3f",
		e.Rider.Order.ID, e.Driver, e.Now, e.PickupCost, e.Revenue))
}
func (l *eventLog) OnExpired(e sim.ExpiredEvent) {
	l.entries = append(l.entries, fmt.Sprintf("expire o=%d t=%.0f", e.Rider.Order.ID, e.Now))
}

// newRuntime builds a shards-engine runtime replaying orders, its
// partition weighted by their pickups as core.Runner.ShardSession's is.
func newRuntime(t *testing.T, cfg sim.Config, shards int, orders []trace.Order, starts []geo.Point) *Runtime {
	t.Helper()
	rt, err := New(Config{Sim: cfg, Shards: shards, Weights: OrderWeights(cfg.Grid, orders)}, sim.NewSliceSource(orders), starts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNewRefusesUnservedSettings: the harness serves one configuration,
// a plain replay, and New names each setting it does not serve instead
// of running it unchecked.
func TestNewRefusesUnservedSettings(t *testing.T) {
	orders, starts, grid := testInstance(t, 200, 8)
	weights := OrderWeights(grid, orders)
	cases := []struct {
		name string
		src  sim.OrderSource // nil replays orders
		edit func(c *Config)
		want string // a substring the error must carry
	}{
		{name: "ChannelSource", src: sim.NewChannelSource(), want: "ChannelSource"},
		{name: "Scenario", edit: func(c *Config) { c.Sim.Scenario = sim.ScenarioConfig{CancelRate: 0.1} }, want: "Scenario"},
		{name: "Pooling", edit: func(c *Config) { c.Sim.Pooling = pool.Config{Capacity: 2} }, want: "Pooling"},
		{name: "Repositioner", edit: func(c *Config) { c.Sim.Repositioner = &dispatch.QueueReposition{} }, want: "Repositioner"},
		{name: "Obs", edit: func(c *Config) { c.Sim.Obs = sim.ObsConfig{Registry: obs.NewRegistry()} }, want: "Obs"},
		{name: "nil weights", edit: func(c *Config) { c.Weights = nil }, want: "weights"},
		{name: "zero shards", edit: func(c *Config) { c.Shards = 0 }, want: "shards"},
		{name: "plain replay"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Sim: sim.Config{Grid: grid, Horizon: 600}, Shards: 2, Weights: weights}
			if c.edit != nil {
				c.edit(&cfg)
			}
			src := c.src
			if src == nil {
				src = sim.NewSliceSource(orders)
			}
			_, err := New(cfg, src, starts)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("New refused the plain configuration: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("New: error %v, want one naming %q", err, c.want)
			}
		})
	}
}

// parityCase is one configuration a 1-shard runtime must reproduce from
// the bare engine. Every piece that holds per-run state — the source and
// the dispatcher — is built fresh for each side.
type parityCase struct {
	name   string
	orders []trace.Order
	starts []geo.Point
	// cfg builds the run's config (without the Observer, which the
	// harness installs).
	cfg func() sim.Config
	// active fails the case when the reference run did not exercise the
	// feature the case exists for.
	active func(t *testing.T, ref *sim.Metrics)
}

// TestOneShardParity is the contract bench/'s one_shard check relies
// on: a 1-shard runtime must reproduce Engine.Run, the loop every
// session runs, exactly — same metrics projection, same idle ledger,
// same event stream in the same order — on a replay to the horizon and
// on one that stops when drained.
func TestOneShardParity(t *testing.T) {
	orders, starts, grid := testInstance(t, 1500, 40)
	base := func() sim.Config {
		return sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600}
	}
	cases := []parityCase{
		{name: "plain", orders: orders, starts: starts, cfg: base,
			active: func(t *testing.T, ref *sim.Metrics) {
				if ref.TotalOrders != len(orders) || ref.Served == 0 {
					t.Fatalf("reference run: %+v, want the full trace sized and some served", ref.Summary())
				}
			}},
		{name: "drained closing source", orders: orders[:200], starts: starts,
			cfg: func() sim.Config {
				cfg := base()
				cfg.Horizon = 30 * 24 * 3600
				cfg.StopWhenDrained = true
				return cfg
			},
			active: func(t *testing.T, ref *sim.Metrics) {
				if ref.TotalOrders != 200 || float64(ref.Batches)*3 >= 30*24*3600 {
					t.Fatalf("reference run did not stop on drain: %+v", ref.Summary())
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refCfg, refLog := c.cfg(), &eventLog{}
			refCfg.Observer = refLog
			ref, err := sim.NewWithSource(refCfg, sim.NewSliceSource(c.orders), c.starts).Run(context.Background(), &dispatch.IRG{})
			if err != nil {
				t.Fatal(err)
			}
			c.active(t, ref)

			rtCfg, rtLog := c.cfg(), &eventLog{}
			rtCfg.Observer = rtLog
			got, err := newRuntime(t, rtCfg, 1, c.orders, c.starts).Run(context.Background(),
				func(int) (sim.Dispatcher, error) { return &dispatch.IRG{}, nil })
			if err != nil {
				t.Fatal(err)
			}

			if ref.Summary() != got.Summary() {
				t.Fatalf("summaries differ:\n  engine:  %+v\n  1-shard: %+v", ref.Summary(), got.Summary())
			}
			// Sprint, not DeepEqual: open ledger entries carry NaN estimates.
			if fmt.Sprint(ref.IdleRecords) != fmt.Sprint(got.IdleRecords) {
				t.Fatalf("idle ledgers differ: %d vs %d records", len(ref.IdleRecords), len(got.IdleRecords))
			}
			if ref.DispatchPhase.Count != got.DispatchPhase.Count {
				t.Fatalf("timed batch counts differ: %d vs %d", ref.DispatchPhase.Count, got.DispatchPhase.Count)
			}
			if len(rtLog.entries) != len(refLog.entries) {
				t.Fatalf("event stream lengths differ: %d vs %d", len(refLog.entries), len(rtLog.entries))
			}
			for i := range refLog.entries {
				if refLog.entries[i] != rtLog.entries[i] {
					t.Fatalf("event streams diverge at %d:\n  engine:  %s\n  1-shard: %s", i, refLog.entries[i], rtLog.entries[i])
				}
			}
		})
	}
}

// TestShardedConservation checks the partitioned run neither loses nor
// duplicates orders or drivers.
func TestShardedConservation(t *testing.T) {
	orders, starts, grid := testInstance(t, 1500, 40)
	cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600}

	rt := newRuntime(t, cfg, 4, orders, starts)
	m, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) {
		return &dispatch.IRG{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every order posted before the horizon is admitted by exactly one
	// shard (a feed is unsized, so an engine's TotalOrders counts its
	// admissions), and every driver ends in exactly one engine (a
	// re-homed driver leaves a Departed slot behind).
	admitted, drivers := 0, 0
	var want obs.HistogramSnapshot
	for _, e := range rt.engines {
		em := e.Finish()
		admitted += em.TotalOrders
		want.Merge(em.DispatchPhase)
		for _, d := range e.Drivers() {
			if d.State != sim.Departed {
				drivers++
			}
		}
	}
	if drivers != len(starts) {
		t.Fatalf("fleet split lost drivers: %d across shards, want %d", drivers, len(starts))
	}
	expected := 0
	for _, o := range orders {
		if o.PostTime < cfg.Horizon {
			expected++
		}
	}
	if admitted != expected {
		t.Fatalf("admitted %d orders across shards, want %d", admitted, expected)
	}
	if m.Served+m.Reneged > m.TotalOrders {
		t.Fatalf("served %d + reneged %d exceeds total %d", m.Served, m.Reneged, m.TotalOrders)
	}
	if m.Served == 0 {
		t.Fatal("sharded run served nothing; instance too small or routing broken")
	}
	if m.TotalOrders != len(orders) {
		t.Fatalf("TotalOrders = %d, want sized total %d", m.TotalOrders, len(orders))
	}
	// The aggregate's dispatch histogram is the shards' merged: one
	// observation per shard-batch, every shard timing every round.
	if want.Count != int64(len(rt.engines)*m.Batches) {
		t.Fatalf("shards timed %d batches, want %d shards x %d rounds", want.Count, len(rt.engines), m.Batches)
	}
	if !reflect.DeepEqual(m.DispatchPhase, want) {
		t.Fatalf("aggregated dispatch histogram %+v is not the shards' merged %+v", m.DispatchPhase, want)
	}
}

// TestShardedDeterminism: the same instance at the same shard count
// produces identical deterministic metrics and re-homing run-to-run.
func TestShardedDeterminism(t *testing.T) {
	orders, starts, grid := testInstance(t, 1200, 32)
	run := func() (*sim.Metrics, []Stats) {
		cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 3 * 3600}
		rt := newRuntime(t, cfg, 4, orders, starts)
		m, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) {
			return &dispatch.IRG{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, rt.Stats()
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1.Summary() != m2.Summary() {
		t.Fatalf("4-shard runs differ:\n  first:  %+v\n  second: %+v", m1.Summary(), m2.Summary())
	}
	if !reflect.DeepEqual(m1.IdleRecords, m2.IdleRecords) {
		t.Fatal("4-shard idle ledgers differ between identical runs")
	}
	for i := range s1 {
		if s1[i].RehomedIn != s2[i].RehomedIn {
			t.Fatalf("shard %d re-homed %d then %d drivers in identical runs", i, s1[i].RehomedIn, s2[i].RehomedIn)
		}
	}
}

// countingCoster and goroutineWatch are session hooks that mutate plain
// fields with no synchronisation: were two shards ever stepped at once,
// -race would report them.
type countingCoster struct {
	roadnet.Coster
	calls int
}

func (c *countingCoster) Cost(a, b geo.Point) float64 {
	c.calls++
	return c.Coster.Cost(a, b)
}

// goroutineWatch logs every event (eventLog appends to a plain slice)
// and, at every batch boundary, checks the process still runs no more
// goroutines than it did before Run.
type goroutineWatch struct {
	eventLog
	t          *testing.T
	budget     int
	maxWaiting int
}

func (w *goroutineWatch) OnBatchStart(e sim.BatchStartEvent) {
	w.eventLog.OnBatchStart(e)
	w.maxWaiting = max(w.maxWaiting, e.Waiting)
	if n := runtime.NumGoroutine(); n > w.budget {
		w.t.Errorf("batch %d: %d goroutines, %d before Run", e.Batch, n, w.budget)
	}
}

// TestRuntimeHooksNeedNoLocks: a session is one goroutine, so nothing it
// calls needs to be safe for concurrent use. A 4-shard run with rounds
// of 300+ waiting riders (above the 256 at which an earlier runtime handed
// a phase to per-shard workers) drives a Coster, a PredictRiders and an
// Observer that all write unsynchronised state, and never adds a
// goroutine. Not parallel: NumGoroutine is process-wide.
func TestRuntimeHooksNeedNoLocks(t *testing.T) {
	day, starts, grid := testInstance(t, 400000, 400)
	const peakStart, horizon = 8 * 3600.0, 600.0
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime >= peakStart && o.PostTime < peakStart+horizon {
			o.PostTime -= peakStart
			o.Deadline -= peakStart
			orders = append(orders, o)
		}
	}

	coster := &countingCoster{Coster: roadnet.NewDefaultCoster()}
	watch := &goroutineWatch{t: t, budget: runtime.NumGoroutine()}
	forecasts := 0
	cfg := sim.Config{
		Grid: grid, Coster: coster, Delta: 5, TC: 1200, Horizon: horizon, CandidateCap: 16,
		PredictRiders: func(now, tc float64, k geo.RegionID) int {
			forecasts++
			return 0
		},
		Observer: watch,
	}
	m, err := newRuntime(t, cfg, 4, orders, starts).Run(context.Background(), func(int) (sim.Dispatcher, error) {
		return &dispatch.LS{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if watch.maxWaiting < 300 {
		t.Fatalf("largest round had %d riders waiting; the instance must reach 300", watch.maxWaiting)
	}
	if m.Served == 0 || coster.calls == 0 || forecasts == 0 || len(watch.entries) == 0 {
		t.Fatalf("a hook never ran: served=%d coster=%d forecasts=%d events=%d",
			m.Served, coster.calls, forecasts, len(watch.entries))
	}
}

// TestRuntimeCancellation: a canceled context stops the run between
// rounds with the context error, matching Engine.Run.
func TestRuntimeCancellation(t *testing.T) {
	orders, starts, grid := testInstance(t, 800, 16)
	cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 24 * 3600}
	rt := newRuntime(t, cfg, 2, orders, starts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Run(ctx, func(int) (sim.Dispatcher, error) {
		return dispatch.NEAR{}, nil
	}); err == nil {
		t.Fatal("canceled run returned nil error")
	}
}

// TestRuntimeSingleUse: a runtime refuses to run twice.
func TestRuntimeSingleUse(t *testing.T) {
	orders, starts, grid := testInstance(t, 200, 8)
	cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 600}
	rt := newRuntime(t, cfg, 2, orders, starts)
	factory := func(int) (sim.Dispatcher, error) { return dispatch.NEAR{}, nil }
	if _, err := rt.Run(context.Background(), factory); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background(), factory); err == nil {
		t.Fatal("second Run returned nil error; want already-ran failure")
	}
}

// TestRehomingLeavesNobodyMisplaced: re-homing looks only at the drivers
// Engine.EachJoined reports, so a path that makes a driver available
// without reporting it would strand that driver. After every round's
// re-homing (the city-wide BatchStart fires right behind it) this test
// scans every engine's whole fleet itself and requires that no available
// driver stands in a region another shard owns, on 2 and 4 shards, and
// that some drivers did cross a frontier. The per-round scan is the
// check; the pinned RehomedIn totals only flag a change in how many
// drivers cross a frontier on this instance.
func TestRehomingLeavesNobodyMisplaced(t *testing.T) {
	orders, starts, grid := testInstance(t, 20000, 80)
	for _, c := range []struct{ shards, rehomed int }{{2, 96}, {4, 193}} {
		var rt *Runtime
		rounds := 0
		cfg := sim.Config{
			Grid: grid, Delta: 3, TC: 1200, Horizon: 2 * 3600, CandidateCap: 16,
			Observer: sim.ObserverFuncs{
				BatchStart: func(e sim.BatchStartEvent) {
					rounds++
					for i, eng := range rt.engines {
						for _, d := range eng.Drivers() {
							if owner := rt.part.OwnerOf(d.Pos); d.State == sim.Available && owner != ID(i) {
								t.Fatalf("%d shards, round %d: shard %d's available driver %d stands at %v, which shard %d owns",
									c.shards, e.Batch, i, d.ID, d.Pos, owner)
							}
						}
					}
				},
			},
		}
		rt = newRuntime(t, cfg, c.shards, orders, starts)
		if _, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) { return &dispatch.LS{}, nil }); err != nil {
			t.Fatal(err)
		}
		rehomed := 0
		for _, s := range rt.Stats() {
			rehomed += s.RehomedIn
		}
		if rounds == 0 || rehomed == 0 {
			t.Fatalf("%d shards: %d rounds re-homed %d drivers; the check needs both", c.shards, rounds, rehomed)
		}
		if rehomed != c.rehomed {
			t.Errorf("%d shards: %d drivers re-homed, want %d", c.shards, rehomed, c.rehomed)
		}
	}
}
