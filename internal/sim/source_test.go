package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

func mkOrder(id int, post, deadline float64) trace.Order {
	return trace.Order{
		ID: trace.OrderID(id), PostTime: post,
		Pickup: center(), Dropoff: offset(center(), 2000),
		Deadline: deadline,
	}
}

func TestSliceSourcePollsInPostTimeOrder(t *testing.T) {
	src := NewSliceSource([]trace.Order{
		mkOrder(2, 30, 100), mkOrder(0, 10, 100), mkOrder(1, 20, 100),
	})
	if src.TotalOrders() != 3 {
		t.Fatalf("TotalOrders = %d", src.TotalOrders())
	}
	ready, done := src.Poll(25)
	if len(ready) != 2 || ready[0].ID != 0 || ready[1].ID != 1 || done {
		t.Fatalf("Poll(25) = %v done=%v", ready, done)
	}
	ready, done = src.Poll(25)
	if len(ready) != 0 || done {
		t.Fatalf("second Poll(25) re-delivered: %v done=%v", ready, done)
	}
	ready, done = src.Poll(1000)
	if len(ready) != 1 || ready[0].ID != 2 || !done {
		t.Fatalf("Poll(1000) = %v done=%v", ready, done)
	}
}

func TestChannelSourceReleasesInPostTimeOrder(t *testing.T) {
	src := NewChannelSource()
	// Submit far out of post-time order, with a tie between 5 and 6.
	for _, o := range []trace.Order{
		mkOrder(3, 300, 500), mkOrder(1, 100, 500), mkOrder(2, 200, 500),
		mkOrder(5, 150, 500), mkOrder(6, 150, 500),
	} {
		if err := src.Submit(o); err != nil {
			t.Fatal(err)
		}
	}
	ready, done := src.Poll(250)
	if done {
		t.Fatal("done before Close")
	}
	var ids []int
	for _, o := range ready {
		ids = append(ids, int(o.ID))
	}
	// PostTime order, submission order breaking the 150 tie.
	want := []int{1, 5, 6, 2}
	if len(ids) != len(want) {
		t.Fatalf("released %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("released %v, want %v", ids, want)
		}
	}
	if src.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", src.Pending())
	}
}

func TestChannelSourceClosureSemantics(t *testing.T) {
	src := NewChannelSource()
	if err := src.Submit(mkOrder(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	src.Close()
	src.Close() // idempotent

	// Submit after Close fails; the buffered order is still delivered.
	if err := src.Submit(mkOrder(2, 20, 100)); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	// Not yet done: order 1 is still buffered.
	if ready, done := src.Poll(5); len(ready) != 0 || done {
		t.Fatalf("Poll(5) = %v done=%v, want empty, not done", ready, done)
	}
	ready, done := src.Poll(50)
	if len(ready) != 1 || ready[0].ID != 1 || !done {
		t.Fatalf("Poll(50) = %v done=%v, want order 1 and done", ready, done)
	}
	if ready, done := src.Poll(60); len(ready) != 0 || !done {
		t.Fatalf("drained Poll = %v done=%v, want empty and done", ready, done)
	}
}

func TestChannelSourceRejectsInvalidOrder(t *testing.T) {
	src := NewChannelSource()
	bad := mkOrder(1, 100, 50) // deadline before posting
	if err := src.Submit(bad); err == nil {
		t.Fatal("invalid order accepted")
	}
	bad = mkOrder(2, 10, 100)
	bad.Pickup.Lng = math.NaN()
	if err := src.Submit(bad); err == nil {
		t.Fatal("NaN-coordinate order accepted")
	}
}

func TestChannelSourceConcurrentSubmit(t *testing.T) {
	src := NewChannelSource()
	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := p*perProducer + i
				if err := src.Submit(mkOrder(id, float64(id%97), 1000)); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	src.Close()
	ready, done := src.Poll(1000)
	if len(ready) != producers*perProducer || !done {
		t.Fatalf("released %d orders done=%v, want %d and done", len(ready), done, producers*perProducer)
	}
	for i := 1; i < len(ready); i++ {
		if ready[i].PostTime < ready[i-1].PostTime {
			t.Fatalf("release order not sorted at %d: %v after %v", i, ready[i].PostTime, ready[i-1].PostTime)
		}
	}
}

// TestChannelSourceParkWakes: Park returns at once while the source
// holds an order, a cancel or its close; otherwise it blocks until one
// arrives or ctx ends, and a wake-up for work already polled away does
// not end it early.
func TestChannelSourceParkWakes(t *testing.T) {
	parked := func(src *ChannelSource, wait time.Duration, arrive func()) time.Duration {
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		if arrive != nil {
			time.AfterFunc(10*time.Millisecond, arrive)
		}
		start := time.Now()
		src.Park(ctx)
		return time.Since(start)
	}
	const long = 5 * time.Second

	src := NewChannelSource()
	if err := src.Submit(mkOrder(1, 100, 500)); err != nil { // future-dated
		t.Fatal(err)
	}
	if d := parked(src, long, nil); d > time.Second {
		t.Errorf("Park with an order held blocked %v", d)
	}
	src.Poll(100)
	// The Submit's wake-up token is still in the channel; the order is not.
	if d := parked(src, 50*time.Millisecond, nil); d < 40*time.Millisecond {
		t.Errorf("Park on an empty source returned after %v, want the 50 ms timeout", d)
	}
	for _, c := range []struct {
		name   string
		arrive func()
	}{
		{"submit", func() { _ = src.Submit(mkOrder(2, 0, 500)) }},
		{"cancel", func() { src.Cancel(2) }},
		{"close", src.Close},
	} {
		if d := parked(src, long, c.arrive); d > time.Second {
			t.Errorf("%s did not wake a parked engine (%v)", c.name, d)
		}
		src.Poll(1000)
		src.PollCancels()
	}
	if d := parked(src, long, nil); d > time.Second {
		t.Errorf("Park on a closed source blocked %v", d)
	}
}

func TestEngineRunsFromChannelSourceAndStopsWhenDrained(t *testing.T) {
	src := NewChannelSource()
	for i := 0; i < 5; i++ {
		if err := src.Submit(mkOrder(i, float64(10*i), 600)); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	cfg := simpleConfig()
	cfg.StopWhenDrained = true
	cfg.Horizon = 100000
	starts := []geo.Point{center(), offset(center(), 500)}
	e := NewWithSource(cfg, src, starts)
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders != 5 {
		t.Fatalf("TotalOrders = %d, want 5", m.TotalOrders)
	}
	if m.Served+m.Reneged != 5 {
		t.Fatalf("outcomes %d+%d, want 5", m.Served, m.Reneged)
	}
	// Drained exit: far fewer batches than the 100000s horizon implies.
	if float64(m.Batches)*cfg.Delta >= cfg.Horizon {
		t.Fatalf("engine ran to the horizon (%d batches) despite drain", m.Batches)
	}
}

func TestEngineLiveSubmitMidRun(t *testing.T) {
	// A dispatcher-driven feed: submit a second wave of orders from
	// inside the run (deterministically, at batch 20) and check they are
	// admitted and served.
	src := NewChannelSource()
	for i := 0; i < 3; i++ {
		if err := src.Submit(mkOrder(i, 0, 400)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := simpleConfig()
	cfg.StopWhenDrained = true
	cfg.Horizon = 50000
	starts := []geo.Point{center(), offset(center(), 400), offset(center(), 800)}
	e := NewWithSource(cfg, src, starts)
	fed := false
	d := funcDispatcher(func(ctx *Context) []Assignment {
		if !fed && ctx.Now >= 20*cfg.Delta {
			fed = true
			for i := 10; i < 13; i++ {
				if err := src.Submit(mkOrder(i, ctx.Now, ctx.Now+400)); err != nil {
					t.Error(err)
				}
			}
			src.Close()
		}
		return takeAll{}.Assign(ctx)
	})
	m, err := e.Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalOrders != 6 {
		t.Fatalf("TotalOrders = %d, want 6", m.TotalOrders)
	}
	if m.Served+m.Reneged != 6 {
		t.Fatalf("outcomes %d+%d, want 6", m.Served, m.Reneged)
	}
}

// TestEngineConcurrentSubmitDuringLiveRun hammers a running engine's
// ChannelSource from many goroutines — the gateway's actual write
// pattern, where Submit races the engine goroutine's Poll every batch.
// The race detector patrols this test (CI runs -race).
func TestEngineConcurrentSubmitDuringLiveRun(t *testing.T) {
	src := NewChannelSource()
	cfg := simpleConfig()
	cfg.StopWhenDrained = true
	cfg.Horizon = 1e9 // ends by drain, not horizon
	cfg.Delta = 30    // coarse batches keep the -race run cheap
	starts := make([]geo.Point, 8)
	for i := range starts {
		starts[i] = offset(center(), float64(i*200))
	}
	e := NewWithSource(cfg, src, starts)

	const producers, perProducer = 8, 15
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// PostTime 0 is always in the engine's past, so every
				// order is admitted at the batch after its submission.
				o := mkOrder(p*perProducer+i, 0, 1e9)
				if err := src.Submit(o); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		src.Close()
		close(done)
	}()

	m, err := e.Run(context.Background(), takeAll{})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	const total = producers * perProducer
	if m.TotalOrders != total {
		t.Fatalf("TotalOrders = %d, want %d", m.TotalOrders, total)
	}
	if m.Served+m.Reneged != total {
		t.Fatalf("outcomes %d+%d, want %d", m.Served, m.Reneged, total)
	}
}

func TestEngineRunContextCancellationMidRun(t *testing.T) {
	orders := make([]trace.Order, 50)
	for i := range orders {
		orders[i] = mkOrder(i, float64(i), 10000)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := New(simpleConfig(), orders, []geo.Point{center()})
	batches := 0
	d := funcDispatcher(func(bctx *Context) []Assignment {
		batches++
		if batches == 10 {
			cancel()
		}
		return nil
	})
	_, err := e.Run(ctx, d)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if batches != 10 {
		t.Fatalf("ran %d batches after cancel, want exactly 10", batches)
	}
}

// The pacing tests drive RunBatches itself — the one clock Engine.Run
// and shard.Runtime.Run both tick on — rather than either caller.

func TestRunBatchesPacedAgainstWallClock(t *testing.T) {
	cfg := Config{Delta: 5, Horizon: 50, PaceFactor: 100} // 10 batches x 0.05s wall each
	var times []float64
	start := time.Now()
	err := RunBatches(context.Background(), cfg, func(now float64) (bool, error) {
		times = append(times, now)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(times) != 10 || times[0] != 0 || times[9] != 45 {
		t.Fatalf("stepped at %v, want 0, 5, ..., 45", times)
	}
	// 45 simulated seconds of pacing at 100x => >= ~450ms of wall time
	// (generous lower bound for timer slop).
	if elapsed < 350*time.Millisecond {
		t.Errorf("paced run finished in %v; pacing not applied", elapsed)
	}
}

func TestRunBatchesPacingHonorsCancellation(t *testing.T) {
	cfg := Config{Delta: 3, Horizon: 3600, PaceFactor: 0.001} // one batch ~= 50 minutes of wall time
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	steps := 0
	start := time.Now()
	err := RunBatches(ctx, cfg, func(float64) (bool, error) {
		steps++
		return false, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if steps != 1 {
		t.Errorf("stepped %d times, want only the unpaced t=0 batch", steps)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation during pacing wait took %v", elapsed)
	}
}

func TestEngineRunDeadlineAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(simpleConfig(), nil, []geo.Point{center()})
	if _, err := e.Run(ctx, noop{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestChannelSourceYieldsToProducers: a free-running session is a tight
// loop, and ChannelSource.Poll is where it yields the processor. On one
// P, a submitter goroutine started while the engine runs must get to
// Submit, and its order be admitted, within a few batches; without the
// yield it waits for the scheduler's ~10 ms preemption, thousands of
// empty batches later. Batches are counted by the Observer, no clock.
func TestChannelSourceYieldsToProducers(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	src := NewChannelSource()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const startAt = 8 // batch whose start launches the submitter
	admittedAt := -1
	cfg := Config{Delta: 1, Horizon: 1e9}
	cfg.Observer = ObserverFuncs{BatchStart: func(e BatchStartEvent) {
		switch {
		case e.Batch == startAt:
			go func() {
				if err := src.Submit(mkOrder(1, 0, 1e9)); err != nil {
					t.Error(err)
				}
			}()
		case e.Waiting > 0 && admittedAt < 0:
			admittedAt = e.Batch
			cancel()
		case e.Batch > startAt+1<<20:
			cancel() // give up rather than spin to the horizon
		}
	}}
	_, err := NewWithSource(cfg, src, nil).Run(ctx, noop{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run ended with %v, want the observer's cancellation", err)
	}
	if admittedAt < 0 || admittedAt-startAt > 64 {
		t.Fatalf("order admitted at batch %d, submitter started at batch %d: want within 64 batches", admittedAt, startAt)
	}
	t.Logf("submitter started at batch %d, order admitted at batch %d", startAt, admittedAt)
}
