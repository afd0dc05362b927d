package mrvd

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mrvd/internal/sim"
)

// A free-running session's clock advances only while it has work: with
// no rider waiting and nothing in its source it parks until Submit,
// Cancel, Close or Stop wakes it.

// awaitOutcome returns the order's outcome or fails the test.
func awaitOutcome(t *testing.T, ch <-chan Outcome) Outcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(30 * time.Second):
		t.Fatal("outcome never arrived")
		return Outcome{}
	}
}

func TestServeHandleIdleSessionParks(t *testing.T) {
	svc, starts := startTestService(t, 10)
	var batches atomic.Int64
	count := ObserverFuncs{BatchStart: func(BatchStartEvent) { batches.Add(1) }}
	h, err := svc.Start(context.Background(), "NEAR", starts, count)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	clock := h.Clock()
	time.Sleep(200 * time.Millisecond)
	if n := batches.Load(); n > 3 {
		t.Errorf("idle session ran %d batches in 200 ms, want at most 3", n)
	}
	if got := h.Clock(); got != clock {
		t.Errorf("idle session's clock moved from %v to %v", clock, got)
	}
	_, ch, err := submitAt(h, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if out := awaitOutcome(t, ch); out.State != sim.OrderAssigned {
		t.Fatalf("order woke the session as %v, want assigned", out.State)
	}
}

func TestServeHandleParkedSessionWakes(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, starts := startTestService(t, 4)
	ctx := context.Background()

	closed, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it park
	closed.Close()
	if _, err := closed.Result(); err != nil {
		t.Errorf("closed session: %v, want a drained result", err)
	}

	stopped, err := svc.Start(ctx, "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	stopped.Stop()
	if _, err := stopped.Result(); !errors.Is(err, context.Canceled) {
		t.Errorf("stopped session: %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// A future-dated order is work: the clock runs until it is released.
func TestServeHandleFutureOrderKeepsClockRunning(t *testing.T) {
	svc, starts := startTestService(t, 4)
	h, err := svc.Start(context.Background(), "NEAR", starts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	const post = 300
	_, ch, err := h.Submit(Order{
		PostTime: post,
		Pickup:   Point{Lng: -73.97, Lat: 40.75},
		Dropoff:  Point{Lng: -73.95, Lat: 40.77},
		Deadline: post + 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := awaitOutcome(t, ch)
	if out.State != sim.OrderAssigned || out.AssignedAt < post {
		t.Fatalf("outcome %v at %v, want assigned at or after %v", out.State, out.AssignedAt, post)
	}
	if h.Clock() < post {
		t.Errorf("clock %v, want at least %v", h.Clock(), post)
	}
}

// TestServeHandleSequentialClientIsDeterministic: a client that submits
// one order at a time, stamping each at the previous outcome's time,
// gets the same session whatever the wall-clock gaps between its
// submits, because the clock waits for it.
func TestServeHandleSequentialClientIsDeterministic(t *testing.T) {
	run := func(jitter *rand.Rand) (sim.Summary, []Outcome) {
		svc, starts := startTestService(t, 3)
		h, err := svc.Start(context.Background(), "IRG", starts)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Stop()
		rng := rand.New(rand.NewSource(5))
		c := h.Bounds().Center()
		point := func() Point {
			return Point{Lng: c.Lng + (rng.Float64()-0.5)*0.08, Lat: c.Lat + (rng.Float64()-0.5)*0.08}
		}
		var outs []Outcome
		post := 0.0
		for i := 0; i < 40; i++ {
			if jitter != nil {
				time.Sleep(time.Duration(jitter.Int63n(int64(2 * time.Millisecond))))
			}
			_, ch, err := h.Submit(Order{PostTime: post, Pickup: point(), Dropoff: point(), Deadline: post + 30 + rng.Float64()*600})
			if err != nil {
				t.Fatal(err)
			}
			out := awaitOutcome(t, ch)
			outs = append(outs, out)
			post = out.AssignedAt
			if out.State == sim.OrderExpired {
				post = out.ExpiredAt
			}
		}
		h.Close()
		m, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		return m.Summary(), outs
	}
	sum, outs := run(nil)
	jSum, jOuts := run(rand.New(rand.NewSource(time.Now().UnixNano())))
	if sum != jSum {
		t.Errorf("summary with wall gaps %+v, without %+v", jSum, sum)
	}
	expired := 0
	for i := range outs {
		if outs[i] != jOuts[i] {
			t.Fatalf("order %d: %+v with wall gaps, %+v without", i, jOuts[i], outs[i])
		}
		if outs[i].State == sim.OrderExpired {
			expired++
		}
	}
	t.Logf("%d of %d orders expired", expired, len(outs))
}
