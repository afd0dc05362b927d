package mrvd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrvd/internal/dispatch"
	"mrvd/internal/sim"
)

// mustService builds a service that must be valid.
func mustService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := NewService(opts...)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc
}

func TestServiceOptionDefaulting(t *testing.T) {
	// A zero-option service defaults exactly like the documented Options
	// defaults (Table 2's parameters).
	svc := mustService(t)
	o := svc.Options().WithDefaults()
	if o.NumDrivers != 100 {
		t.Errorf("default fleet = %d, want 100", o.NumDrivers)
	}
	if o.Delta != 3 || o.TC != 1200 || o.Horizon != 24*3600 {
		t.Errorf("default timing = (%v, %v, %v), want (3, 1200, 86400)", o.Delta, o.TC, o.Horizon)
	}
	if o.City == nil {
		t.Error("default city not materialized")
	}
}

func TestServiceOptionsApply(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 1000, Seed: 9})
	rep := &dispatch.QueueReposition{}
	obs := ObserverFuncs{}
	svc := mustService(t,
		WithCity(city),
		WithFleet(42),
		WithBatchInterval(7),
		WithSchedulingWindow(900),
		WithHorizon(7200),
		WithSeed(5),
		WithObserver(obs),
		WithRepositioner(rep, 123),
	)
	o := svc.Options()
	if o.City != city || o.NumDrivers != 42 || o.Delta != 7 || o.TC != 900 ||
		o.Horizon != 7200 || o.Seed != 5 {
		t.Errorf("options not applied: %+v", o)
	}
	if o.Repositioner != rep || o.RepositionAfter != 123 {
		t.Error("repositioner option not applied")
	}
	if o.Observer == nil {
		t.Error("observer option not applied")
	}
}

func TestServiceOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"fleet zero", WithFleet(0), "WithFleet"},
		{"fleet negative", WithFleet(-5), "WithFleet"},
		{"nil coster", WithCoster(nil), "WithCoster"},
		{"nil city", WithCity(nil), "WithCity"},
		{"batch interval", WithBatchInterval(0), "WithBatchInterval"},
		{"scheduling window", WithSchedulingWindow(-1), "WithSchedulingWindow"},
		{"horizon", WithHorizon(0), "WithHorizon"},
		{"pace", WithPace(-1), "WithPace"},
		{"model without predictor", WithPrediction(PredictModel, nil), "WithPrediction"},
		{"nil observer", WithObserver(nil), "WithObserver"},
		{"nil repositioner", WithRepositioner(nil, 0), "WithRepositioner"},
		{"nil orders", WithOrders(nil, nil), "WithOrders"},
		{"invalid order", WithOrders([]Order{{PostTime: 10, Deadline: 5}}, nil), "WithOrders"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService(tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewService err = %v, want mention of %s", err, tc.want)
			}
			// The invalid configuration also refuses to run, even if the
			// construction error was ignored.
			if _, runErr := svc.Run(context.Background(), "NEAR"); runErr == nil {
				t.Error("Run accepted an invalid service")
			}
			if _, serveErr := svc.Serve(context.Background(), "NEAR", NewChannelSource(), nil); serveErr == nil {
				t.Error("Serve accepted an invalid service")
			}
			if _, startErr := svc.Start(context.Background(), "NEAR", nil); startErr == nil {
				t.Error("Start accepted an invalid service")
			}
			if _, sweepErr := svc.Sweep(context.Background(), SweepSpec{Algorithms: []string{"NEAR"}, Seeds: []int64{1}, Fleets: []int{5}}); sweepErr == nil {
				t.Error("Sweep accepted an invalid service")
			}
		})
	}
	// Several invalid options join into one error mentioning each.
	_, err := NewService(WithFleet(0), WithCoster(nil))
	if err == nil || !strings.Contains(err.Error(), "WithFleet") || !strings.Contains(err.Error(), "WithCoster") {
		t.Errorf("joined validation error = %v", err)
	}
}

func TestServiceRunUnknownAlgorithm(t *testing.T) {
	svc := mustService(t, WithCity(NewCity(CityConfig{OrdersPerDay: 100, Seed: 1})))
	if _, err := svc.Run(context.Background(), "BOGUS"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := svc.Start(context.Background(), "BOGUS", nil); err == nil {
		t.Error("Start accepted unknown algorithm")
	}
}

func TestServiceRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	svc := mustService(t,
		WithCity(NewCity(CityConfig{OrdersPerDay: 1000, Seed: 1})),
		WithFleet(10),
		WithHorizon(3600),
	)
	if _, err := svc.Run(ctx, "NEAR"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestServiceServeChannelSource(t *testing.T) {
	city := NewCity(CityConfig{OrdersPerDay: 1000, Seed: 3})
	svc := mustService(t,
		WithCity(city),
		WithFleet(15),
		WithBatchInterval(5),
		WithHorizon(6*3600),
		WithPrediction(PredictNone, nil),
	)
	src := NewChannelSource()
	grid := city.Grid()
	c := grid.Bounds().Center()
	for i := 0; i < 20; i++ {
		post := float64(i * 10)
		err := src.Submit(Order{
			ID: OrderID(i), PostTime: post,
			Pickup:   Point{Lng: c.Lng + float64(i%5)*1e-3, Lat: c.Lat},
			Dropoff:  Point{Lng: c.Lng, Lat: c.Lat + 0.01},
			Deadline: post + 300,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	m, err := svc.Serve(context.Background(), "NEAR", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders != 20 {
		t.Fatalf("TotalOrders = %d, want 20", m.TotalOrders)
	}
	if m.Served+m.Reneged != 20 {
		t.Fatalf("outcomes %d+%d, want 20", m.Served, m.Reneged)
	}
	// Drained exit fired well before the 6h horizon.
	if float64(m.Batches)*5 >= 6*3600 {
		t.Errorf("Serve ran to the horizon (%d batches)", m.Batches)
	}
}

func TestServiceSweepDeterministicAcrossWorkers(t *testing.T) {
	svc := mustService(t,
		WithCity(NewCity(CityConfig{OrdersPerDay: 3000, Seed: 2})),
		WithHorizon(2*3600),
		WithBatchInterval(10),
	)
	spec := SweepSpec{
		Algorithms: []string{"NEAR", "RAND"},
		Seeds:      []int64{1, 2},
		Fleets:     []int{10, 20},
	}
	seq := spec
	seq.Workers = 1
	par := spec
	par.Workers = 8
	a, err := svc.Sweep(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Sweep(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("cell errors: %v / %v", a[i].Err, b[i].Err)
		}
		sa := fmt.Sprintf("%+v", a[i].Metrics.Summary())
		sb := fmt.Sprintf("%+v", b[i].Metrics.Summary())
		if sa != sb {
			t.Errorf("cell %+v diverged:\nseq: %s\npar: %s", a[i].SweepPoint, sa, sb)
		}
	}
}

func TestServiceObserverSeesRun(t *testing.T) {
	var batches, assigned int
	svc := mustService(t,
		WithCity(NewCity(CityConfig{OrdersPerDay: 2000, Seed: 4})),
		WithFleet(20),
		WithBatchInterval(10),
		WithHorizon(2*3600),
		WithObserver(ObserverFuncs{
			BatchStart: func(BatchStartEvent) { batches++ },
			Assigned:   func(AssignedEvent) { assigned++ },
		}),
	)
	m, err := svc.Run(context.Background(), "NEAR")
	if err != nil {
		t.Fatal(err)
	}
	if batches != m.Batches {
		t.Errorf("observer batches %d != metrics %d", batches, m.Batches)
	}
	if assigned != m.Served {
		t.Errorf("observer assignments %d != served %d", assigned, m.Served)
	}
}

// --- Service.Start / ServeHandle ---

// startTestService builds a small live-serve service: free-running
// engine, generous horizon, a fleet parked around the city center.
func startTestService(t *testing.T, fleet int, extra ...Option) (*Service, []Point) {
	t.Helper()
	city := NewCity(CityConfig{OrdersPerDay: 1000, Seed: 6})
	svc := mustService(t, append([]Option{
		WithCity(city),
		WithFleet(fleet),
		WithBatchInterval(3),
		WithHorizon(30 * 24 * 3600),
		WithPrediction(PredictNone, nil),
	}, extra...)...)
	c := city.Grid().Bounds().Center()
	starts := make([]Point, fleet)
	for i := range starts {
		starts[i] = Point{Lng: c.Lng + float64(i%7)*1e-3, Lat: c.Lat + float64(i%5)*1e-3}
	}
	return svc, starts
}

// submitAt builds an order posted at the handle's current engine clock
// with the given patience.
func submitAt(h *ServeHandle, patience float64) (OrderID, <-chan Outcome, error) {
	now := h.Clock()
	return h.Submit(Order{
		PostTime: now,
		Pickup:   Point{Lng: -73.97, Lat: 40.75},
		Dropoff:  Point{Lng: -73.95, Lat: 40.77},
		Deadline: now + patience,
	})
}

func TestServeHandleSubmitAwaitsOutcome(t *testing.T) {
	svc, starts := startTestService(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[OrderID]bool)
	for i := 0; i < 25; i++ {
		id, ch, err := submitAt(h, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if ids[id] {
			t.Fatalf("duplicate assigned id %d", id)
		}
		ids[id] = true
		select {
		case out := <-ch:
			if out.ID != id {
				t.Fatalf("outcome for order %d, want %d", out.ID, id)
			}
			if out.State != sim.OrderAssigned {
				t.Fatalf("order %d status %v, want assigned", id, out.State)
			}
			if out.Revenue <= 0 || out.FreeAt < out.AssignedAt {
				t.Fatalf("implausible outcome %+v", out)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("outcome never arrived")
		}
	}
	h.Close()
	// A submit racing the drain surfaces as the session going away —
	// ErrServeFinished whether the source already closed (translated
	// from the ChannelSource) or the session fully finished.
	if _, _, err := submitAt(h, 100); !errors.Is(err, ErrServeFinished) {
		t.Errorf("Submit during drain = %v, want ErrServeFinished", err)
	}
	m, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 25 {
		t.Errorf("served %d, want 25", m.Served)
	}
	if h.InFlight() != 0 {
		t.Errorf("in-flight %d after drain", h.InFlight())
	}
	// Submitting into a finished session fails the same way.
	if _, _, err := submitAt(h, 100); !errors.Is(err, ErrServeFinished) {
		t.Errorf("Submit after session end = %v, want ErrServeFinished", err)
	}
}

func TestServeHandleExpiredOutcome(t *testing.T) {
	svc, starts := startTestService(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	// Patience 0: the order expires at its admitting batch (deadline
	// strictly before the following batch's now).
	id, ch, err := submitAt(h, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ch:
		if out.State != sim.OrderExpired {
			t.Fatalf("order %d status %v, want expired", id, out.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("outcome never arrived")
	}
	h.Stop()
	<-h.Done()
}

// TestServeHandleConcurrentSubmit exercises the edge the gateway depends
// on — many goroutines submitting into, canceling in and reading from a
// live session — and the ledger's contract under it: every submitted id
// resolves exactly once, and at the moment its waiter wakes the
// ledger's view of the order is the delivered Outcome.
func TestServeHandleConcurrentSubmit(t *testing.T) {
	svc, starts := startTestService(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, v := range h.Store().Orders() {
					if got, ok := h.Store().Order(v.ID); !ok || (v.State != "pending" && got != v) {
						t.Errorf("order %d read %+v after listing terminal as %+v", v.ID, got, v)
						return
					}
				}
			}
		}()
	}
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	outcomes := make(chan Outcome, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id, ch, err := submitAt(h, 1e6)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 == 0 {
					// The cancel races the assignment; either may win.
					if err := h.Cancel(id); err != nil && !errors.Is(err, errUnknownOrder) {
						t.Errorf("cancel %d: %v", id, err)
					}
				}
				out := <-ch
				if v, ok := h.Store().Order(id); !ok || v != out || out.ID != id {
					t.Errorf("order %d woke with %+v, ledger reads %+v (known=%v)", id, out, v, ok)
				}
				if _, again := <-ch; again {
					t.Errorf("order %d resolved twice", id)
				}
				outcomes <- out
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	readers.Wait()
	close(outcomes)
	seen := make(map[OrderID]bool)
	for out := range outcomes {
		if seen[out.ID] {
			t.Fatalf("order %d resolved twice", out.ID)
		}
		seen[out.ID] = true
		if out.State != sim.OrderAssigned && out.State != sim.OrderExpired && out.State != sim.OrderCanceled {
			t.Fatalf("order %d non-terminal status %v", out.ID, out.State)
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("resolved %d orders, want %d", len(seen), workers*perWorker)
	}
	if st := h.Store().Stats(); st.Submitted != len(seen) || st.Assigned+st.Expired+st.Canceled != len(seen) || h.InFlight() != 0 {
		t.Fatalf("books do not balance: %+v, in flight %d", st, h.InFlight())
	}
	h.Close()
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestServeHandleCancellationResolvesWaiters pins the shutdown path:
// canceling the session context mid-serve resolves every in-flight
// order to sim.OrderSessionEnded and leaks no goroutines.
func TestServeHandleCancellationResolvesWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	// Pace the engine hard (1 simulated second per wall second, 3s
	// batches) so submitted orders are still in flight when we cancel.
	paced, starts := startTestService(t, 4, WithPace(1))
	ctx, cancel := context.WithCancel(context.Background())
	h, err := paced.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan Outcome
	for i := 0; i < 10; i++ {
		_, ch, err := submitAt(h, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	cancel()
	if _, err := h.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
	terminal := 0
	for _, ch := range chans {
		select {
		case out := <-ch:
			if out.State == sim.OrderSessionEnded {
				terminal++
			} else if out.State == sim.OrderAssigned || out.State == sim.OrderExpired {
				terminal++ // a batch may have resolved it before the cancel
			} else {
				t.Fatalf("unexpected status %v", out.State)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never resolved after cancel")
		}
	}
	if terminal != len(chans) {
		t.Fatalf("resolved %d waiters, want %d", terminal, len(chans))
	}
	// The serve goroutine must be gone; allow the runtime a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestServeHandlePanicEndsSession: a panic on a live session's
// goroutine — here an observer's — becomes the session's error instead
// of killing the process: Result returns it with the stack, every order
// still in flight resolves canceled, and the goroutine exits.
func TestServeHandlePanicEndsSession(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, starts := startTestService(t, 1)
	boom := ObserverFuncs{Assigned: func(AssignedEvent) { panic("observer boom") }}
	h, err := svc.Start(context.Background(), "NEAR", starts, boom)
	if err != nil {
		t.Fatal(err)
	}
	// Both orders are released in one batch, far enough ahead that both
	// are queued by then: the one driver takes one, whose assignment
	// panics, while the other still waits.
	post := h.Clock() + 3000
	var chans []<-chan Outcome
	for i := 0; i < 2; i++ {
		_, ch, err := h.Submit(Order{
			PostTime: post,
			Pickup:   Point{Lng: -73.97, Lat: 40.75},
			Dropoff:  Point{Lng: -73.95, Lat: 40.77},
			Deadline: post + 1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	m, err := h.Result()
	if m != nil || err == nil || !strings.Contains(err.Error(), "observer boom") || !strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("Result = %v, %v; want no metrics and the panic with its stack", m, err)
	}
	states := map[sim.OrderState]int{}
	for _, ch := range chans {
		states[awaitOutcome(t, ch).State]++
	}
	if states[sim.OrderAssigned] != 1 || states[sim.OrderSessionEnded] != 1 {
		t.Fatalf("outcomes %v, want one assigned (its observer panicked) and one canceled", states)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestServeHandleInFlightLimit pins the atomic admission bound: with a
// paced engine (nothing resolves during the test) concurrent submits
// beyond the limit fail with ErrQueueFull and in-flight never
// overshoots.
func TestServeHandleInFlightLimit(t *testing.T) {
	paced, starts := startTestService(t, 4, WithPace(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := paced.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 6
	h.SetInFlightLimit(limit)
	var wg sync.WaitGroup
	var ok, full atomic.Int32
	for i := 0; i < 4*limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := submitAt(h, 1e6)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrQueueFull):
				full.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	wg.Wait()
	// The engine's t=0 batch may assign up to fleet (4) orders during
	// the burst, freeing that many slots — but the raced check itself
	// can never overshoot, and nothing expires (generous patience).
	if got := ok.Load(); got < limit || got > limit+4 {
		t.Errorf("accepted %d submits, want %d..%d", got, limit, limit+4)
	}
	if got, want := full.Load(), 4*int32(limit)-ok.Load(); got != want {
		t.Errorf("ErrQueueFull on %d submits, want %d", got, want)
	}
	if got := h.InFlight(); got > limit {
		t.Errorf("in-flight %d exceeds limit %d", got, limit)
	}
	h.Stop()
	<-h.Done()
	if _, _, err := submitAt(h, 100); !errors.Is(err, ErrServeFinished) {
		t.Errorf("submit after end = %v, want ErrServeFinished", err)
	}
}

func TestServeHandleSubmitInvalidOrder(t *testing.T) {
	svc, starts := startTestService(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	// Deadline before post time: rejected by the source's validation,
	// and the waiter must not linger as in-flight.
	if _, _, err := h.Submit(Order{PostTime: 100, Deadline: 50}); err == nil {
		t.Error("invalid order accepted")
	}
	if h.InFlight() != 0 {
		t.Errorf("in-flight %d after rejected submit, want 0", h.InFlight())
	}
	h.Stop()
	<-h.Done()
}

// failAfter is a writer whose writes succeed n times and then fail.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestSpanTracerWriteFailureLeavesRunIntact: a span tracer whose writer
// fails partway through a replay stops tracing, not dispatching — the
// run completes with the untraced Summary, Close reports the write
// error and Count the spans written before it.
func TestSpanTracerWriteFailureLeavesRunIntact(t *testing.T) {
	const written = 25
	opts := []Option{
		WithCity(NewCity(CityConfig{OrdersPerDay: 2000, Seed: 4})),
		WithFleet(20),
		WithBatchInterval(10),
		WithHorizon(2 * 3600),
	}
	plain, err := mustService(t, opts...).Run(context.Background(), "IRG")
	if err != nil {
		t.Fatal(err)
	}
	full := errors.New("disk full")
	tracer := NewSpanTracer(&failAfter{n: written, err: full})
	traced, err := mustService(t, append(opts, WithObservability(nil, tracer))...).Run(context.Background(), "IRG")
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if traced.Summary() != plain.Summary() {
		t.Errorf("a failing tracer moved the run:\n traced %+v\n  plain %+v", traced.Summary(), plain.Summary())
	}
	if err := tracer.Close(); !errors.Is(err, full) {
		t.Errorf("tracer.Close() = %v, want %v", err, full)
	}
	if got := tracer.Count(); got != written {
		t.Errorf("tracer.Count() = %d, want the %d spans written before the failure", got, written)
	}
}
