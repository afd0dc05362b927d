package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/trace"
)

func storeOrder(id int) trace.Order {
	return trace.Order{
		ID: trace.OrderID(id), PostTime: float64(id), Deadline: float64(id) + 300,
		Pickup:  geo.Point{Lng: -73.97, Lat: 40.75},
		Dropoff: geo.Point{Lng: -73.95, Lat: 40.77},
	}
}

// seededStore returns a store listing a fleet of the given size.
func seededStore(fleet int) *StateStore {
	s := NewStateStore()
	s.SeedFleet(fleet)
	return s
}

// register books o — whose ID must be the next the ledger issues — into
// a throwaway source, and returns its waiter.
func register(t *testing.T, s *StateStore, o trace.Order) <-chan OrderView {
	t.Helper()
	id, ch, err := s.Register(o, NewChannelSource())
	if err != nil || id != o.ID {
		t.Fatalf("Register = id %d, %v; want id %d", id, err, o.ID)
	}
	return ch
}

func TestStateStoreFoldsOrderLifecycle(t *testing.T) {
	s := seededStore(3)
	o := storeOrder(0)
	waiter := register(t, s, o)

	v, ok := s.Order(0)
	if !ok || v.State != OrderPending {
		t.Fatalf("tracked order view = %+v, ok=%v", v, ok)
	}
	if v.PostTime != o.PostTime || v.Deadline != o.Deadline {
		t.Errorf("order times not tracked: %+v", v)
	}

	rider := &Rider{Order: o, PickedAt: 42}
	s.OnAssigned(AssignedEvent{Now: 6, Rider: rider, Driver: 2, PickupCost: 36, Revenue: 100, FreeAt: 180, Dest: o.Dropoff, DriverFreeAt: 180})
	v, _ = s.Order(0)
	if v.State != OrderAssigned || v.Driver != 2 || v.AssignedAt != 6 || v.Revenue != 100 {
		t.Fatalf("assigned view = %+v", v)
	}
	// The fold that turned the order terminal resolved its waiter with
	// that same view, once.
	if out, ok := <-waiter; !ok || out != v {
		t.Fatalf("waiter got %+v (ok=%v), want the ledger view %+v", out, ok, v)
	}
	if _, ok := <-waiter; ok {
		t.Fatal("waiter resolved twice")
	}
	if s.InFlight() != 0 {
		t.Errorf("in-flight %d after the terminal event", s.InFlight())
	}
	// A later expiry event for the same order must not downgrade it.
	s.OnExpired(ExpiredEvent{Now: 9, Rider: rider})
	if v, _ = s.Order(0); v.State != OrderAssigned {
		t.Errorf("terminal state downgraded to %v", v.State)
	}

	st := s.Stats()
	if st.Submitted != 1 || st.Assigned != 1 || st.Expired != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Revenue != 100 || st.PickupSeconds != 36 {
		t.Errorf("accumulators = %+v", st)
	}

	d := s.Drivers()
	if len(d) != 3 {
		t.Fatalf("drivers = %d, want 3 (pre-populated fleet)", len(d))
	}
	if d[2].Served != 1 || !d[2].Busy || d[2].FreeAt != 180 {
		t.Errorf("driver 2 view = %+v", d[2])
	}
	// The batch boundary past FreeAt flips the driver back to idle.
	s.OnBatchStart(BatchStartEvent{Now: 200, Batch: 4, Waiting: 1, Available: 2})
	if d = s.Drivers(); d[2].Busy {
		t.Error("driver still busy after its trip completed")
	}
	if st = s.Stats(); st.Clock != 200 || st.Batch != 4 || st.Waiting != 1 || st.Available != 2 {
		t.Errorf("batch stats = %+v", st)
	}
}

func TestStateStoreBatchGapsWithInjectedClock(t *testing.T) {
	// Batch-gap stats are wall-clock timings; with an injected clock
	// they are exactly computable instead of scheduler-dependent.
	s := NewStateStore()
	wall := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return wall })

	gaps := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond}
	s.OnBatchStart(BatchStartEvent{Now: 0, Batch: 0})
	for i, g := range gaps {
		wall = wall.Add(g)
		s.OnBatchStart(BatchStartEvent{Now: float64(i+1) * 2, Batch: i + 1})
	}

	st := s.Stats()
	if st.AvgBatchGapMS != 20 {
		t.Errorf("AvgBatchGapMS = %v, want 20", st.AvgBatchGapMS)
	}
	if st.MaxBatchGapMS != 30 {
		t.Errorf("MaxBatchGapMS = %v, want 30", st.MaxBatchGapMS)
	}
	// Nearest-rank over {10, 20, 30} is 20/30/30 ms; each interpolated
	// percentile lies in the obs.DefBuckets bucket holding that value,
	// (10, 20] and (20, 50] ms.
	checkGapPercentiles(t, st, [3][2]float64{{10, 20}, {20, 50}, {20, 50}})

	// A long session: every timing covers the whole run. One 1 s
	// outlier, then 4,096 gaps of 5 ms and 2,048 of 7 ms.
	batch := len(gaps) + 1
	tick := func(g time.Duration) {
		wall = wall.Add(g)
		s.OnBatchStart(BatchStartEvent{Now: float64(batch) * 2, Batch: batch})
		batch++
	}
	tick(time.Second)
	for i := 0; i < 4096; i++ {
		tick(5 * time.Millisecond)
	}
	for i := 0; i < 2048; i++ {
		tick(7 * time.Millisecond)
	}
	if s.gaps.Count != 6148 {
		t.Fatalf("%d gaps recorded, want 6,148", s.gaps.Count)
	}
	st = s.Stats()
	// Nearest-rank over all 6,148 gaps is 5/7/7 ms: buckets (2, 5] and
	// (5, 10] ms.
	checkGapPercentiles(t, st, [3][2]float64{{2, 5}, {5, 10}, {5, 10}})
	total := 60.0 + 1000 + 5*4096 + 7*2048
	if want := total / 6148; st.MaxBatchGapMS != 1000 || math.Abs(st.AvgBatchGapMS-want) > 1e-9 {
		t.Errorf("whole-session gap avg/max = %v/%v, want %v/1000", st.AvgBatchGapMS, st.MaxBatchGapMS, want)
	}
}

// checkGapPercentiles checks that st's p50/p95/p99 batch gaps lie in
// the given (lo, hi] millisecond ranges.
func checkGapPercentiles(t *testing.T, st StoreStats, want [3][2]float64) {
	t.Helper()
	for i, got := range []float64{st.BatchGapP50MS, st.BatchGapP95MS, st.BatchGapP99MS} {
		if !(got > want[i][0] && got <= want[i][1]) {
			t.Errorf("gap percentiles = %v/%v/%v, want each in its (lo, hi] of %v ms",
				st.BatchGapP50MS, st.BatchGapP95MS, st.BatchGapP99MS, want)
			return
		}
	}
}

// TestStateStoreStatsAllocatesNothing pins that a stats read costs no
// heap memory however long the session has run: the batch gaps live in
// a fixed histogram, not a ring copied and sorted per read.
func TestStateStoreStatsAllocatesNothing(t *testing.T) {
	s := NewStateStore()
	wall := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return wall })
	for i := 0; i < 10000; i++ {
		wall = wall.Add(time.Duration(1+i%7) * time.Millisecond)
		s.OnBatchStart(BatchStartEvent{Now: float64(i), Batch: i})
	}
	var st StoreStats
	if n := testing.AllocsPerRun(100, func() { st = s.Stats() }); n != 0 {
		t.Errorf("Stats allocates %v objects per call after 10,000 batch starts, want 0", n)
	}
	if st.BatchGapP99MS <= 0 || st.MaxBatchGapMS != 7 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStateStoreRegisterIsAtomic pins the booking rules: ids are dense
// in registration order, the in-flight bound is exact, an order the
// source refuses leaves no trace, and Close sweeps what is still
// pending to "canceled" — waiter and view alike — and ends the books.
func TestStateStoreRegisterIsAtomic(t *testing.T) {
	s := NewStateStore()
	wall := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return wall })
	reg := obs.NewRegistry()
	lat := reg.Histogram("test_order_seconds", "", obs.LatencyBuckets)
	s.TimeOrders(lat)
	s.SetInFlightLimit(2)

	closed := NewChannelSource()
	closed.Close()
	if _, _, err := s.Register(storeOrder(0), closed); !errors.Is(err, ErrSourceClosed) {
		t.Fatalf("refused order: err = %v", err)
	}
	if _, ok := s.Order(0); ok || s.InFlight() != 0 || s.Stats().Submitted != 0 {
		t.Fatalf("refused order left a trace: in-flight %d, stats %+v", s.InFlight(), s.Stats())
	}

	src := NewChannelSource()
	var waiters [2]<-chan OrderView
	for i := range waiters {
		id, ch, err := s.Register(storeOrder(7), src) // the caller's ID is overwritten
		if err != nil || id != trace.OrderID(i) {
			t.Fatalf("Register #%d = id %d, %v", i, id, err)
		}
		waiters[i] = ch
	}
	if got, _ := src.Poll(1e9); len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("source holds %+v, want ids 0 and 1", got)
	}
	if _, _, err := s.Register(storeOrder(2), src); !errors.Is(err, ErrInFlightLimit) {
		t.Fatalf("third order past a bound of 2: err = %v", err)
	}

	wall = wall.Add(250 * time.Millisecond)
	s.OnExpired(ExpiredEvent{Now: 33, Rider: &Rider{Order: storeOrder(0)}})
	if out := <-waiters[0]; out.State != OrderExpired || out.ExpiredAt != 33 {
		t.Fatalf("expired outcome = %+v", out)
	}
	// An event for an order the ledger never booked books nothing.
	s.OnExpired(ExpiredEvent{Now: 34, Rider: &Rider{Order: storeOrder(99)}})
	if _, ok := s.Order(99); ok {
		t.Fatal("an event created an order entry")
	}

	wall = wall.Add(750 * time.Millisecond)
	s.Close()
	out, ok := <-waiters[1]
	if v, _ := s.Order(1); !ok || out.State != OrderSessionEnded || v != out {
		t.Fatalf("swept outcome %+v (ok=%v), ledger view %+v", out, ok, v)
	}
	if _, _, err := s.Register(storeOrder(2), src); !errors.Is(err, ErrSessionEnded) {
		t.Fatalf("Register after Close: err = %v", err)
	}
	if st := s.Stats(); st.Submitted != 2 || st.Expired != 1 || st.Canceled != 0 || s.InFlight() != 0 {
		t.Fatalf("stats = %+v, in-flight %d", st, s.InFlight())
	}
	// Both orders were timed on the injected clock: 0.25 s and 1 s.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_order_seconds_count 2") || !strings.Contains(b.String(), "test_order_seconds_sum 1.25") {
		t.Fatalf("latency histogram:\n%s", b.String())
	}
}

func TestStateStoreCancelAndDeclineFold(t *testing.T) {
	s := seededStore(2)
	o := storeOrder(0)
	register(t, s, o)
	rider := &Rider{Order: o}

	// A decline is non-terminal: the order stays pending with the
	// decline on its record, and the driver cools down busy-in-place.
	s.OnDeclined(DeclinedEvent{Now: 12, Rider: rider, Driver: 1, RetryAt: 72})
	v, _ := s.Order(0)
	if v.State != OrderPending || v.Declines != 1 {
		t.Fatalf("declined view = %+v", v)
	}
	d := s.Drivers()
	if d[1].Declines != 1 || !d[1].Busy || d[1].FreeAt != 72 {
		t.Fatalf("declining driver view = %+v", d[1])
	}

	// The rider then cancels: terminal, and a later expiry must not
	// downgrade it.
	s.OnCanceled(CanceledEvent{Now: 30, Rider: rider, Explicit: true})
	v, _ = s.Order(0)
	if v.State != OrderCanceled || v.CanceledAt != 30 {
		t.Fatalf("canceled view = %+v", v)
	}
	s.OnExpired(ExpiredEvent{Now: 33, Rider: rider})
	if v, _ = s.Order(0); v.State != OrderCanceled {
		t.Fatalf("cancel downgraded to %v", v.State)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Declined != 1 || st.Expired != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStateStoreRepositionFolds(t *testing.T) {
	s := seededStore(1)
	if d := s.Drivers(); d[0].Busy {
		t.Fatalf("seeded driver busy before any event: %+v", d[0])
	}
	s.OnRepositioned(RepositionedEvent{
		Now: 10, Driver: 0,
		From: geo.Point{Lng: -74, Lat: 40.7}, To: geo.Point{Lng: -73.9, Lat: 40.8},
		Cost: 120, ArriveAt: 130,
	})
	d := s.Drivers()
	if d[0].Repositions != 1 || !d[0].Busy || d[0].FreeAt != 130 {
		t.Errorf("driver view = %+v", d[0])
	}
	if got := d[0].Pos; got.Lng != -73.9 {
		t.Errorf("driver position not updated: %+v", got)
	}
	if st := s.Stats(); st.Repositioned != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A batch start at or after ArriveAt frees the driver. A cruise due
	// at or before the clock keeps it busy until the next batch start,
	// and one with a NaN ArriveAt keeps it busy at every later batch.
	s.OnBatchStart(BatchStartEvent{Now: 130, Batch: 1})
	if d = s.Drivers(); d[0].Busy {
		t.Errorf("driver busy after arriving: %+v", d[0])
	}
	s.OnRepositioned(RepositionedEvent{Now: 130, Driver: 0, ArriveAt: 100})
	if d = s.Drivers(); !d[0].Busy {
		t.Errorf("driver sent off idle before the next batch start: %+v", d[0])
	}
	s.OnBatchStart(BatchStartEvent{Now: 131, Batch: 2})
	if d = s.Drivers(); d[0].Busy {
		t.Errorf("driver busy after its cruise came due: %+v", d[0])
	}
	s.OnRepositioned(RepositionedEvent{Now: 130, Driver: 0, ArriveAt: math.NaN()})
	s.OnBatchStart(BatchStartEvent{Now: 1e9, Batch: 3})
	if d = s.Drivers(); !d[0].Busy {
		t.Errorf("driver with a NaN FreeAt cleared: %+v", d[0])
	}
}

// TestStateStoreConcurrentReadsDuringEvents runs readers against the
// store while an event stream mutates it — the gateway's actual access
// pattern; the race detector patrols this test.
func TestStateStoreConcurrentReadsDuringEvents(t *testing.T) {
	s := seededStore(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Orders()
				s.Drivers()
				s.Stats()
				s.Order(3)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		o := storeOrder(i)
		register(t, s, o)
		s.OnBatchStart(BatchStartEvent{Now: float64(i), Batch: i})
		if i%2 == 0 {
			s.OnAssigned(AssignedEvent{Now: float64(i), Rider: &Rider{Order: o}, Driver: DriverID(i % 8), FreeAt: float64(i + 50)})
		} else {
			s.OnExpired(ExpiredEvent{Now: float64(i), Rider: &Rider{Order: o}})
		}
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Submitted != 500 || st.Assigned != 250 || st.Expired != 250 {
		t.Errorf("stats after stream = %+v", st)
	}
	if got := len(s.Orders()); got != 500 {
		t.Errorf("orders = %d, want 500", got)
	}
}

// TestStateStoreBusyQueueMatchesSweep checks the busy flag Drivers
// derives against a fold that, at every batch start, clears every busy
// view whose FreeAt is at or before Now — over random streams of
// assignments, declines (RetryAt above or below the current FreeAt)
// and cruises whose FreeAt lands before, on or after the next batch,
// including drivers made busy again before their old FreeAt passed and
// drivers the store only learns from events. After every batch start
// the views must equal the reference fold's.
func TestStateStoreBusyQueueMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		const seeded, fleet = 5, 8
		s := seededStore(seeded)
		ref := map[DriverID]*DriverView{}
		for id := DriverID(0); id < seeded; id++ {
			ref[id] = &DriverView{ID: id}
		}
		view := func(id DriverID) *DriverView {
			if ref[id] == nil {
				ref[id] = &DriverView{ID: id}
			}
			return ref[id]
		}
		rider := &Rider{Order: storeOrder(1 << 20)} // never registered
		now := 0.0
		// Whole-second offsets make FreeAt == Now common; a quarter
		// second lands between batches.
		freeAt := func() float64 { return now + float64(rng.Intn(13)-3) + 0.25*float64(rng.Intn(2)) }
		for batch := 0; batch < 60; batch++ {
			for n := rng.Intn(4); n > 0; n-- {
				id := DriverID(rng.Intn(fleet))
				v := view(id)
				switch rng.Intn(3) {
				case 0:
					at, dest := freeAt(), geo.Point{Lng: -73.95, Lat: 40.7 + float64(batch)/1000}
					s.OnAssigned(AssignedEvent{Now: now, Rider: rider, Driver: id, DriverFreeAt: at, Stops: 2, Dest: dest})
					v.Served++
					v.Busy, v.Pos, v.FreeAt, v.RemainingStops, v.LastEventAt = true, dest, at, 2, now
				case 1:
					at := freeAt()
					s.OnDeclined(DeclinedEvent{Now: now, Rider: rider, Driver: id, RetryAt: at})
					v.Declines++
					v.Busy, v.FreeAt, v.LastEventAt = true, math.Max(v.FreeAt, at), now
				case 2:
					at, to := freeAt(), geo.Point{Lng: -73.9, Lat: 40.7 + float64(id)/100}
					s.OnRepositioned(RepositionedEvent{Now: now, Driver: id, To: to, ArriveAt: at})
					v.Repositions++
					v.Busy, v.Pos, v.FreeAt, v.LastEventAt = true, to, at, now
				}
			}
			now += float64(1 + rng.Intn(3))
			s.OnBatchStart(BatchStartEvent{Now: now, Batch: batch})
			var want []DriverView
			for id := DriverID(0); id < fleet; id++ {
				if v := ref[id]; v != nil {
					if v.Busy && v.FreeAt <= now {
						v.Busy = false
					}
					want = append(want, *v)
				}
			}
			if got := s.Drivers(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d (now %v):\n got %+v\nwant %+v", trial, batch, now, got, want)
			}
		}
	}
}
