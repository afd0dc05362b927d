package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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

// eventLog records a scalar projection of every observer event, so two
// runs can be compared for stream-identical behaviour.
type eventLog struct {
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
func (l *eventLog) OnCanceled(e sim.CanceledEvent) {
	l.entries = append(l.entries, fmt.Sprintf("cancel o=%d t=%.0f explicit=%v", e.Rider.Order.ID, e.Now, e.Explicit))
}
func (l *eventLog) OnDeclined(e sim.DeclinedEvent) {
	l.entries = append(l.entries, fmt.Sprintf("decline o=%d d=%d t=%.0f retry=%.0f", e.Rider.Order.ID, e.Driver, e.Now, e.RetryAt))
}
func (l *eventLog) OnRepositioned(e sim.RepositionedEvent) {
	l.entries = append(l.entries, fmt.Sprintf("repos d=%d t=%.0f", e.Driver, e.Now))
}
func (l *eventLog) OnPickedUp(e sim.PickedUpEvent) {
	l.entries = append(l.entries, fmt.Sprintf("pickup o=%d d=%d t=%.0f", e.Order, e.Driver, e.Now))
}
func (l *eventLog) OnDroppedOff(e sim.DroppedOffEvent) {
	l.entries = append(l.entries, fmt.Sprintf("dropoff o=%d d=%d t=%.0f shared=%v", e.Order, e.Driver, e.Now, e.Shared))
}

// parityCase is one configuration a 1-shard runtime must reproduce from
// the bare engine. Every piece that holds per-run state — the source,
// the dispatcher, an obs registry — is built fresh for each side.
type parityCase struct {
	name string
	// orders/starts override the shared generated instance.
	orders []trace.Order
	starts []geo.Point
	// cfg builds the run's config (without the Observer, which the
	// harness installs).
	cfg func() sim.Config
	// source builds the order source; nil replays orders as a SliceSource.
	source func(orders []trace.Order) sim.OrderSource
	// dispatcher builds the dispatcher; nil is IRG.
	dispatcher func() sim.Dispatcher
	// active fails the case when the reference run did not exercise the
	// feature the case exists for.
	active func(t *testing.T, ref *sim.Metrics, events []string)
}

// checkOneShardParity runs the case on sim.Engine.Run, the session loop,
// and on a 1-shard runtime and requires the same Summary,
// idle and travel ledgers, batch count and event stream in the same
// order. It returns the runtime, the reference metrics and the runtime's
// event stream for case-specific assertions.
func checkOneShardParity(t *testing.T, c parityCase) (*Runtime, *sim.Metrics, []string) {
	t.Helper()
	source := c.source
	if source == nil {
		source = func(orders []trace.Order) sim.OrderSource { return sim.NewSliceSource(orders) }
	}
	dispatcher := c.dispatcher
	if dispatcher == nil {
		dispatcher = func() sim.Dispatcher { return &dispatch.IRG{} }
	}

	refCfg, refLog := c.cfg(), &eventLog{}
	refCfg.Observer = refLog
	ref, err := sim.NewWithSource(refCfg, source(c.orders), c.starts).Run(context.Background(), dispatcher())
	if err != nil {
		t.Fatal(err)
	}
	if c.active != nil {
		c.active(t, ref, refLog.entries)
	}

	rtCfg, rtLog := c.cfg(), &eventLog{}
	rtCfg.Observer = rtLog
	rt, err := New(Config{Sim: rtCfg, Shards: 1}, source(c.orders), c.starts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) { return dispatcher(), nil })
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
	if !reflect.DeepEqual(ref.TravelRecords, got.TravelRecords) {
		t.Fatalf("travel-error ledgers differ: %d vs %d records", len(ref.TravelRecords), len(got.TravelRecords))
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
	return rt, ref, rtLog.entries
}

// countPrefix counts the events of one kind in an eventLog stream.
func countPrefix(events []string, prefix string) int {
	n := 0
	for _, e := range events {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

// scriptedCancels is a deterministic CancelableSource: a trace replay
// that also stages each scripted cancel request at the first batch at
// or after its time, and, as the CancelableSource contract asks, not
// before Poll has released its order. An id the trace lacks is staged
// on time, for the consumer to drop.
type scriptedCancels struct {
	*sim.SliceSource
	now     float64
	post    map[trace.OrderID]float64 // the trace's post times
	pending []scriptedCancel          // sorted by at
}

func newScriptedCancels(orders []trace.Order, script []scriptedCancel) *scriptedCancels {
	s := &scriptedCancels{SliceSource: sim.NewSliceSource(orders), post: make(map[trace.OrderID]float64), pending: script}
	for _, o := range orders {
		s.post[o.ID] = o.PostTime
	}
	return s
}

type scriptedCancel struct {
	at float64
	id trace.OrderID
}

func (s *scriptedCancels) Poll(now float64) ([]trace.Order, bool) {
	s.now = now
	return s.SliceSource.Poll(now)
}

func (s *scriptedCancels) PollCancels() []trace.OrderID {
	var ids []trace.OrderID
	held := s.pending[:0]
	for _, c := range s.pending {
		if post, ok := s.post[c.id]; c.at > s.now || ok && post > s.now {
			held = append(held, c)
		} else {
			ids = append(ids, c.id)
		}
	}
	s.pending = held
	return ids
}

// TestOneShardParity is the contract bench/'s one_shard check relies
// on: a 1-shard runtime must reproduce Engine.Run, the loop every
// session runs, exactly — same metrics projection, same ledgers, same
// event stream in the same order — under every engine feature a session
// can turn on. (Scenarios and pooling have their own tests below, on
// the same harness.)
func TestOneShardParity(t *testing.T) {
	orders, starts, grid := testInstance(t, 1500, 40)
	base := func() sim.Config {
		return sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600}
	}
	// A hand-built instance whose explicit cancels have known fates: one
	// driver, so B and C must wait behind A's trip.
	grid4 := geo.NewGrid(geo.BBox{MinLng: 0, MinLat: 0, MaxLng: 0.04, MaxLat: 0.04}, 4, 4)
	here, there := geo.Point{Lng: 0.01, Lat: 0.01}, geo.Point{Lng: 0.03, Lat: 0.03}
	cancelOrders := []trace.Order{
		{ID: 1, PostTime: 0, Deadline: 300, Pickup: here, Dropoff: there},   // A: assigned at t=0
		{ID: 2, PostTime: 3, Deadline: 900, Pickup: here, Dropoff: there},   // B: waits behind A
		{ID: 3, PostTime: 60, Deadline: 900, Pickup: here, Dropoff: there},  // C: canceled before it posts
		{ID: 4, PostTime: 90, Deadline: 3000, Pickup: there, Dropoff: here}, // D: served once A's trip ends
	}

	var reg *obs.Registry // the obs case's latest registry
	cases := []parityCase{
		{name: "plain", orders: orders, starts: starts, cfg: base,
			active: func(t *testing.T, ref *sim.Metrics, _ []string) {
				if ref.TotalOrders != len(orders) || ref.Served == 0 {
					t.Fatalf("reference run: %+v, want the full trace sized and some served", ref.Summary())
				}
			}},
		{name: "repositioner", orders: orders, starts: starts,
			cfg: func() sim.Config {
				cfg := base()
				cfg.Horizon = 3600
				cfg.Repositioner = &dispatch.QueueReposition{}
				cfg.RepositionAfter = 120
				return cfg
			},
			active: func(t *testing.T, _ *sim.Metrics, events []string) {
				if countPrefix(events, "repos") == 0 {
					t.Fatal("reference run repositioned nobody")
				}
			}},
		{name: "drained closing source", orders: orders[:200], starts: starts,
			cfg: func() sim.Config {
				cfg := base()
				cfg.Horizon = 30 * 24 * 3600
				cfg.StopWhenDrained = true
				return cfg
			},
			source: func(orders []trace.Order) sim.OrderSource {
				src := sim.NewChannelSource()
				for _, o := range orders {
					if err := src.Submit(o); err != nil {
						t.Fatal(err)
					}
				}
				src.Close()
				return src
			},
			active: func(t *testing.T, ref *sim.Metrics, _ []string) {
				if ref.TotalOrders != 200 || float64(ref.Batches)*3 >= 30*24*3600 {
					t.Fatalf("reference run did not stop on drain: %+v", ref.Summary())
				}
			}},
		{name: "explicit cancels", orders: cancelOrders, starts: []geo.Point{here},
			cfg: func() sim.Config {
				return sim.Config{Grid: grid4, Delta: 3, TC: 600, Horizon: 3600, StopWhenDrained: true}
			},
			source: func(orders []trace.Order) sim.OrderSource {
				return newScriptedCancels(orders, []scriptedCancel{
					{at: 9, id: 2},  // B while it waits
					{at: 12, id: 1}, // A after its assignment: dropped
					{at: 30, id: 3}, // C before admission: held until t=60
					{at: 33, id: 9}, // an id that never arrives: dropped
				})
			},
			dispatcher: func() sim.Dispatcher { return dispatch.NEAR{} },
			active: func(t *testing.T, ref *sim.Metrics, events []string) {
				want := []string{"cancel o=2 t=9 explicit=true", "cancel o=3 t=60 explicit=true"}
				var got []string
				for _, e := range events {
					if strings.HasPrefix(e, "cancel") {
						got = append(got, e)
					}
				}
				if !reflect.DeepEqual(got, want) || ref.Served != 2 {
					t.Fatalf("reference run canceled %v and served %d, want %v and 2 (A, D)", got, ref.Served, want)
				}
			}},
		{name: "obs registry", orders: orders, starts: starts,
			cfg: func() sim.Config {
				cfg := base()
				reg = obs.NewRegistry()
				cfg.Obs = sim.ObsConfig{Registry: reg}
				return cfg
			},
			active: func(t *testing.T, ref *sim.Metrics, _ []string) {
				if n := reg.Counter("mrvd_orders_admitted_total", "").Value(); n == 0 {
					t.Fatal("reference run's registry counted no admissions")
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt, _, _ := checkOneShardParity(t, c)
			// One shard forwards cancels to its only engine: no per-order
			// address book for a long live session to grow.
			if rt.routed != nil {
				t.Fatalf("1-shard runtime kept a cancel address book of %d orders", len(rt.routed))
			}
		})
	}
}

// TestOneShardScenarioParity extends the parity contract to the
// disruption layer: with scenarios enabled (cancellations, declines,
// travel noise) a 1-shard runtime must still reproduce Engine.Run
// event for event — the scenario RNG stream, the cancel/decline draws
// and the noise perturbations all line up because a 1-shard runtime
// keeps the parent scenario seed.
func TestOneShardScenarioParity(t *testing.T) {
	orders, starts, grid := testInstance(t, 1500, 40)
	checkOneShardParity(t, parityCase{
		orders: orders, starts: starts,
		cfg: func() sim.Config {
			return sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600,
				Scenario: sim.ScenarioConfig{CancelRate: 0.2, DeclineProb: 0.15, TravelNoise: 0.25, Seed: 7}}
		},
		active: func(t *testing.T, ref *sim.Metrics, _ []string) {
			if ref.Canceled == 0 || ref.Declines == 0 || len(ref.TravelRecords) == 0 {
				t.Fatalf("scenario inactive in the reference run: %+v", ref.Summary())
			}
		},
	})
}

// TestOneShardPoolingParity extends the 1-shard parity contract to the
// pooling subsystem: with shared rides enabled and a pooling-aware
// dispatcher, a 1-shard runtime reproduces Engine.Run event for
// event — including the pickup/dropoff stop stream — and its shard
// stats account for every pooled counter.
func TestOneShardPoolingParity(t *testing.T) {
	orders, starts, grid := testInstance(t, 2500, 25)
	rt, ref, events := checkOneShardParity(t, parityCase{
		orders: orders, starts: starts,
		cfg: func() sim.Config {
			return sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600,
				Pooling: pool.Config{Capacity: 3, MaxDetourSeconds: 400}}
		},
		dispatcher: func() sim.Dispatcher { return dispatch.POOL{} },
		active: func(t *testing.T, ref *sim.Metrics, _ []string) {
			if ref.SharedServed == 0 {
				t.Fatalf("pooling inactive in the reference run: %+v", ref.Summary())
			}
		},
	})
	stats := rt.Stats()
	if len(stats) != 1 {
		t.Fatalf("1-shard runtime reports %d stats rows", len(stats))
	}
	if stats[0].SharedServed != ref.SharedServed {
		t.Fatalf("shard stats count %d shared trips, metrics say %d", stats[0].SharedServed, ref.SharedServed)
	}
	// Every stop event the observer saw is tallied: each completed
	// shared or solo trip crosses exactly one pickup and one dropoff.
	pickups, dropoffs := countPrefix(events, "pickup"), countPrefix(events, "dropoff")
	if stats[0].PickedUp != pickups || stats[0].DroppedOff != dropoffs {
		t.Fatalf("shard stats (%d picked up, %d dropped off) disagree with the stream (%d, %d)",
			stats[0].PickedUp, stats[0].DroppedOff, pickups, dropoffs)
	}
}

// TestShardedScenarioDeterministicAndCounted: a multi-shard scenario
// run reproduces exactly, decorrelates per-shard RNG streams, and its
// shard stats account for every cancel and decline.
func TestShardedScenarioDeterministicAndCounted(t *testing.T) {
	orders, starts, grid := testInstance(t, 1500, 40)
	run := func() (*sim.Metrics, []Stats) {
		cfg := sim.Config{
			Grid: grid, Delta: 3, TC: 1200, Horizon: 3 * 3600,
			Scenario: sim.ScenarioConfig{CancelRate: 0.3, DeclineProb: 0.2, Seed: 11},
		}
		rt, err := New(Config{Sim: cfg, Shards: 4}, sim.NewSliceSource(orders), starts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) {
			return dispatch.NEAR{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, rt.Stats()
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1.Summary() != m2.Summary() {
		t.Fatalf("4-shard scenario runs differ:\n  %+v\n  %+v", m1.Summary(), m2.Summary())
	}
	if m1.Canceled == 0 || m1.Declines == 0 {
		t.Fatalf("scenario inactive across shards: %+v", m1.Summary())
	}
	canceled, declined := 0, 0
	for i := range s1 {
		if s1[i].Canceled != s2[i].Canceled || s1[i].Declined != s2[i].Declined {
			t.Fatalf("shard %d disruption counters differ between identical runs", i)
		}
		canceled += s1[i].Canceled
		declined += s1[i].Declined
	}
	if canceled != m1.Canceled || declined != m1.Declines {
		t.Fatalf("shard stats (%d canceled, %d declined) disagree with metrics (%d, %d)",
			canceled, declined, m1.Canceled, m1.Declines)
	}
}

// TestShardStatsMatchMetrics pins that shard stats are the engines' own
// tallies, not a second count beside the stream: for 1 and 2 shards,
// with and without a session observer (the tap is only installed with
// one), every lifecycle counter summed over Stats equals the run's
// aggregated Metrics — including Served after pooled pre-pickup cancels,
// which roll the commit's accounting back (a counting tap never did).
func TestShardStatsMatchMetrics(t *testing.T) {
	scenOrders, scenStarts, grid := testInstance(t, 1500, 40)
	poolOrders, poolStarts, _ := testInstance(t, 2500, 25)
	cases := []struct {
		name       string
		cfg        sim.Config
		starts     []geo.Point
		source     func() sim.OrderSource
		dispatcher sim.Dispatcher
		active     func(m *sim.Metrics) bool
	}{
		{name: "scenario",
			cfg: sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 3 * 3600,
				Scenario: sim.ScenarioConfig{CancelRate: 0.3, DeclineProb: 0.2, Seed: 11}},
			starts:     scenStarts,
			source:     func() sim.OrderSource { return sim.NewSliceSource(scenOrders) },
			dispatcher: dispatch.NEAR{},
			active:     func(m *sim.Metrics) bool { return m.Canceled > 0 && m.Declines > 0 && m.Reneged > 0 }},
		{name: "pooled cancels",
			cfg: sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600,
				Pooling: pool.Config{Capacity: 3, MaxDetourSeconds: 400}},
			starts: poolStarts,
			source: func() sim.OrderSource {
				// Every order cancels 20 s after posting: still waiting,
				// or committed to a plan but not yet picked up.
				var script []scriptedCancel
				for _, o := range poolOrders {
					script = append(script, scriptedCancel{at: o.PostTime + 20, id: o.ID})
				}
				sort.SliceStable(script, func(i, j int) bool { return script[i].at < script[j].at })
				return newScriptedCancels(poolOrders, script)
			},
			dispatcher: dispatch.POOL{},
			active:     func(m *sim.Metrics) bool { return m.Canceled > m.Served && m.PickedUp > 0 && m.DroppedOff > 0 }},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			for _, observed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%d shards/observed=%v", c.name, shards, observed), func(t *testing.T) {
					cfg := c.cfg
					if observed {
						cfg.Observer = &eventLog{}
					}
					rt, err := New(Config{Sim: cfg, Shards: shards}, c.source(), c.starts)
					if err != nil {
						t.Fatal(err)
					}
					m, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) { return c.dispatcher, nil })
					if err != nil {
						t.Fatal(err)
					}
					if !c.active(m) {
						t.Fatalf("case inactive: %+v picked=%d dropped=%d", m.Summary(), m.PickedUp, m.DroppedOff)
					}
					var sum Stats
					for _, s := range rt.Stats() {
						sum.Served += s.Served
						sum.Reneged += s.Reneged
						sum.Canceled += s.Canceled
						sum.Declined += s.Declined
						sum.SharedServed += s.SharedServed
						sum.PickedUp += s.PickedUp
						sum.DroppedOff += s.DroppedOff
					}
					got := [7]int{sum.Served, sum.Reneged, sum.Canceled, sum.Declined, sum.SharedServed, sum.PickedUp, sum.DroppedOff}
					want := [7]int{m.Served, m.Reneged, m.Canceled, m.Declines, m.SharedServed, m.PickedUp, m.DroppedOff}
					if got != want {
						t.Fatalf("summed shard stats {served reneged canceled declined shared picked dropped} = %v, metrics say %v", got, want)
					}
				})
			}
		}
	}
}

// TestShardedConservation checks the partitioned run neither loses nor
// duplicates orders or drivers.
func TestShardedConservation(t *testing.T) {
	orders, starts, grid := testInstance(t, 1500, 40)
	cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 4 * 3600}

	rt, err := New(Config{Sim: cfg, Shards: 4}, sim.NewSliceSource(orders), starts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) {
		return &dispatch.IRG{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stats := rt.Stats()
	admitted, drivers := 0, 0
	for _, s := range stats {
		admitted += s.Admitted
		drivers += s.Drivers
	}
	if drivers != len(starts) {
		t.Fatalf("fleet split lost drivers: %d across shards, want %d", drivers, len(starts))
	}
	// Every order posted before the horizon is admitted to exactly one
	// shard (the horizon cuts the day at 4h, so count expected ones).
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
	var want obs.HistogramSnapshot
	for _, e := range rt.engines {
		want.Merge(e.Finish().DispatchPhase)
	}
	if want.Count != int64(len(rt.engines)*m.Batches) {
		t.Fatalf("shards timed %d batches, want %d shards x %d rounds", want.Count, len(rt.engines), m.Batches)
	}
	if !reflect.DeepEqual(m.DispatchPhase, want) {
		t.Fatalf("aggregated dispatch histogram %+v is not the shards' merged %+v", m.DispatchPhase, want)
	}
}

// TestShardedDeterminism: the same instance at the same shard count
// produces identical deterministic metrics run-to-run.
func TestShardedDeterminism(t *testing.T) {
	orders, starts, grid := testInstance(t, 1200, 32)
	run := func() (*sim.Metrics, []Stats) {
		cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 3 * 3600}
		rt, err := New(Config{Sim: cfg, Shards: 4}, sim.NewSliceSource(orders), starts)
		if err != nil {
			t.Fatal(err)
		}
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
		if s1[i].Admitted != s2[i].Admitted || s1[i].Served != s2[i].Served || s1[i].Reneged != s2[i].Reneged {
			t.Fatalf("shard %d counters differ between identical runs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

// countingCoster, countingRepositioner and goroutineWatch are session
// hooks that mutate plain fields with no synchronisation: were two
// shards ever stepped at once, -race would report them.
type countingCoster struct {
	roadnet.Coster
	calls int
}

func (c *countingCoster) Cost(a, b geo.Point) float64 {
	c.calls++
	return c.Coster.Cost(a, b)
}

type countingRepositioner struct {
	sim.Repositioner
	calls int
}

func (r *countingRepositioner) Target(ctx *sim.Context, d *sim.Driver, region geo.RegionID) (geo.Point, bool) {
	r.calls++
	return r.Repositioner.Target(ctx, d, region)
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
// of 300+ waiting riders (above the 256 at which PR 21's runtime handed
// a phase to per-shard workers) drives a Coster, a PredictRiders, a
// Repositioner and an Observer that all write unsynchronised state, and
// never adds a goroutine. Not parallel: NumGoroutine is process-wide.
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
	repos := &countingRepositioner{Repositioner: &dispatch.QueueReposition{}}
	watch := &goroutineWatch{t: t, budget: runtime.NumGoroutine()}
	forecasts := 0
	cfg := sim.Config{
		Grid: grid, Coster: coster, Delta: 5, TC: 1200, Horizon: horizon, CandidateCap: 16,
		PredictRiders: func(now, tc float64, k geo.RegionID) int {
			forecasts++
			return 0
		},
		Repositioner: repos, RepositionAfter: 60,
		Observer: watch,
	}
	rt, err := New(Config{Sim: cfg, Shards: 4}, sim.NewSliceSource(orders), starts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) {
		return &dispatch.LS{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if watch.maxWaiting < 300 {
		t.Fatalf("largest round had %d riders waiting; the instance must reach 300", watch.maxWaiting)
	}
	if m.Served == 0 || coster.calls == 0 || forecasts == 0 || repos.calls == 0 || len(watch.entries) == 0 {
		t.Fatalf("a hook never ran: served=%d coster=%d forecasts=%d repositioner=%d events=%d",
			m.Served, coster.calls, forecasts, repos.calls, len(watch.entries))
	}
}

// TestRuntimeCancellation: a canceled context stops the run between
// rounds with the context error, matching Engine.Run.
func TestRuntimeCancellation(t *testing.T) {
	orders, starts, grid := testInstance(t, 800, 16)
	cfg := sim.Config{Grid: grid, Delta: 3, TC: 1200, Horizon: 24 * 3600}
	rt, err := New(Config{Sim: cfg, Shards: 2}, sim.NewSliceSource(orders), starts)
	if err != nil {
		t.Fatal(err)
	}
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
	rt, err := New(Config{Sim: cfg, Shards: 2}, sim.NewSliceSource(orders), starts)
	if err != nil {
		t.Fatal(err)
	}
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
// driver stands in a region another shard owns — on 2 and 4 shards, with
// a repositioner and driver declines (cooldown rejoins) both active. The per-round scan is the check; the pinned
// RehomedIn totals only flag a change in how many drivers cross a
// frontier on this instance.
func TestRehomingLeavesNobodyMisplaced(t *testing.T) {
	orders, starts, grid := testInstance(t, 20000, 80)
	for _, c := range []struct{ shards, rehomed int }{{2, 76}, {4, 121}} {
		var rt *Runtime
		rounds, repositioned, declined := 0, 0, 0
		cfg := sim.Config{
			Grid: grid, Delta: 3, TC: 1200, Horizon: 2 * 3600, CandidateCap: 16,
			Repositioner: &dispatch.QueueReposition{}, RepositionAfter: 120,
			Scenario: sim.ScenarioConfig{DeclineProb: 0.2, Seed: 11},
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
				Repositioned: func(sim.RepositionedEvent) { repositioned++ },
				Declined:     func(sim.DeclinedEvent) { declined++ },
			},
		}
		var err error
		rt, err = New(Config{Sim: cfg, Shards: c.shards}, sim.NewSliceSource(orders), starts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(context.Background(), func(int) (sim.Dispatcher, error) { return &dispatch.LS{}, nil }); err != nil {
			t.Fatal(err)
		}
		rehomed := 0
		for _, s := range rt.Stats() {
			rehomed += s.RehomedIn
		}
		if rounds == 0 || repositioned == 0 || declined == 0 {
			t.Fatalf("%d shards: a feature never ran: rounds=%d repositioned=%d declined=%d",
				c.shards, rounds, repositioned, declined)
		}
		if rehomed != c.rehomed {
			t.Errorf("%d shards: %d drivers re-homed, want %d", c.shards, rehomed, c.rehomed)
		}
	}
}
