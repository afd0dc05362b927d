package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"mrvd/internal/heapq"
	"mrvd/internal/trace"
)

// ErrSourceClosed is wrapped by ChannelSource.Submit once the stream
// has been closed; callers distinguish it (errors.Is) from the order's
// own validation failures.
var ErrSourceClosed = errors.New("sim: order source closed")

// OrderSource feeds orders to the engine incrementally, decoupling where
// orders come from (a recorded trace, a live request stream, a replayed
// production log) from the batch loop that dispatches them.
//
// Poll is called once per batch with the current simulation time. It
// must return every not-yet-delivered order whose PostTime is at or
// before now, in ascending PostTime order, and report done=true once no
// further orders will ever be produced (delivered or pending). Poll is
// only ever called from the engine's goroutine; implementations that
// accept orders from other goroutines (ChannelSource) must synchronize
// internally.
type OrderSource interface {
	Poll(now float64) (ready []trace.Order, done bool)
}

// CancelableSource is an optional OrderSource extension for sources
// that carry rider-initiated cancellation requests alongside orders.
// PollCancels is called once per batch from the engine goroutine,
// immediately after Poll's admissions are in, and returns the order ids
// staged since the last call, in staging order. It returns only ids
// whose order Poll has already released: the source holds a cancel for
// an order it has not released yet, and stages it when Poll releases
// that order, so the engine sees it in the batch that admits the rider.
// The engine keeps no cancel past its batch: it drops an id it holds
// no live rider for (a terminal order, or one that never existed).
type CancelableSource interface {
	OrderSource
	PollCancels() []trace.OrderID
}

// SizedSource is an optional OrderSource extension for sources that know
// their total order count upfront. The engine uses it to report
// Metrics.TotalOrders for the whole trace rather than only the admitted
// prefix, preserving the batch-replay accounting of the paper's setup.
type SizedSource interface {
	OrderSource
	TotalOrders() int
}

// ParkableSource is an optional OrderSource extension for live sources:
// an idle free-running session parks in Park until the source holds an
// order (released or future-dated), a staged cancel or its close.
type ParkableSource interface {
	OrderSource
	Park(ctx context.Context)
}

// SliceSource replays a fixed in-memory trace — the classic experiment
// setup. It validates and sorts the orders once at construction.
type SliceSource struct {
	orders []trace.Order
	next   int
}

// NewSliceSource copies, validates and sorts a trace by post time.
// Structurally broken orders (non-finite times or coordinates, deadlines
// before posting) would corrupt region indexing or the replay order deep
// inside the batch loop, so they are rejected at the door with a panic;
// callers replaying external traces should pre-validate with
// trace.Order.Valid.
func NewSliceSource(orders []trace.Order) *SliceSource {
	os := append([]trace.Order(nil), orders...)
	for _, o := range os {
		if err := o.Valid(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
	}
	trace.SortByPostTime(os)
	return &SliceSource{orders: os}
}

// Poll implements OrderSource.
func (s *SliceSource) Poll(now float64) ([]trace.Order, bool) {
	start := s.next
	for s.next < len(s.orders) && s.orders[s.next].PostTime <= now {
		s.next++
	}
	return s.orders[start:s.next], s.next == len(s.orders)
}

// TotalOrders implements SizedSource.
func (s *SliceSource) TotalOrders() int { return len(s.orders) }

// ChannelSource accepts orders from concurrent producers for live,
// Submit-driven dispatch. Producers call Submit as requests arrive and
// Close when the stream ends; the engine drains ready orders each batch.
//
// Orders may be submitted in any PostTime order: the source buffers them
// and releases each once the engine's clock reaches its PostTime, in
// ascending PostTime order (ties release in submission order). An order
// submitted with a PostTime already in the past is released at the next
// batch — its remaining patience is whatever is left of
// Deadline - engine time, so producers should stamp PostTime near the
// engine's clock. For producers stamping off the wall clock that means
// the engine must be paced (Config.PaceFactor / mrvd.WithPace): a
// free-running simulation burns through hours of simulated time per
// wall second and would expire wall-clock-stamped orders on arrival.
// A free-running clock advances only while the session has work (a
// rider waiting, an order or cancel held here), so a feed that waits for
// a clock time must keep an order queued at that time. Deterministic
// feeds gate submissions on the engine clock (see examples/livedispatch).
type ChannelSource struct {
	mu      sync.Mutex
	heap    []submission // a heapq on submissionLess
	seq     int64
	closed  bool
	cancels []trace.OrderID
	wake    chan struct{} // one token: something arrived for a parked engine
}

// NewChannelSource returns an empty, open source.
func NewChannelSource() *ChannelSource { return &ChannelSource{wake: make(chan struct{}, 1)} }

// signal wakes a parked engine; c.mu must be held.
func (c *ChannelSource) signal() {
	select {
	case c.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// Submit enqueues one order. It is safe for concurrent use, validates
// the order, and fails after Close rather than panicking — a live
// ingestion edge must reject bad requests, not crash the engine.
func (c *ChannelSource) Submit(o trace.Order) error {
	if err := o.Valid(); err != nil {
		return fmt.Errorf("sim: submit: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("submit order %d: %w", o.ID, ErrSourceClosed)
	}
	heapq.Push(&c.heap, submission{order: o, seq: c.seq}, submissionLess)
	c.seq++
	c.signal()
	return nil
}

// Close marks the stream complete. Orders already submitted are still
// delivered; further Submit calls fail. Close is idempotent.
func (c *ChannelSource) Close() {
	c.mu.Lock()
	c.closed = true
	c.signal()
	c.mu.Unlock()
}

// Cancel stages one rider-initiated cancellation for the engine's next
// batch. An order this source still holds (found by a scan of the
// unreleased orders) is marked instead, and Poll stages its cancel when
// it releases the order, ahead of every later request. Any other id is
// staged at once, for the engine to drop if it holds no live rider for
// it. Safe for concurrent use, idempotent in effect, and accepted even
// after Close — already-submitted orders may still be canceled while
// the stream drains.
func (c *ChannelSource) Cancel(id trace.OrderID) {
	c.mu.Lock()
	if i := slices.IndexFunc(c.heap, func(s submission) bool { return s.order.ID == id }); i >= 0 {
		c.heap[i].canceled = true
	} else {
		c.cancels = append(c.cancels, id)
	}
	c.signal()
	c.mu.Unlock()
}

// PollCancels implements CancelableSource: it drains the staged
// cancellation requests in staging order.
func (c *ChannelSource) PollCancels() []trace.OrderID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.cancels
	c.cancels = nil
	return ids
}

// Pending reports how many submitted orders have not been released yet.
func (c *ChannelSource) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}

// Park implements ParkableSource, first dropping a token left by work
// already polled. A zero ChannelSource (no wake channel) never parks.
func (c *ChannelSource) Park(ctx context.Context) {
	c.mu.Lock()
	select {
	case <-c.wake:
	default:
	}
	idle := len(c.heap) == 0 && len(c.cancels) == 0 && !c.closed && c.wake != nil
	c.mu.Unlock()
	if idle {
		select {
		case <-c.wake:
		case <-ctx.Done():
		}
	}
}

// Poll implements OrderSource: it releases every buffered order posted
// at or before now, in (PostTime, submission) order, staging the cancel
// of each one marked by Cancel.
//
// It first yields the processor: a free-running session with riders
// waiting is a tight loop that polls once per batch, and without the
// yield its producers (Submit callers, the HTTP gateway's handlers)
// would, at GOMAXPROCS=1, only run on ~10 ms preemptions. A SliceSource
// replay has no producer and pays no yield.
func (c *ChannelSource) Poll(now float64) ([]trace.Order, bool) {
	runtime.Gosched()
	c.mu.Lock()
	defer c.mu.Unlock()
	var ready []trace.Order
	for len(c.heap) > 0 && c.heap[0].order.PostTime <= now {
		s := heapq.Pop(&c.heap, submissionLess)
		ready = append(ready, s.order)
		if s.canceled {
			c.cancels = append(c.cancels, s.order.ID)
		}
	}
	return ready, c.closed && len(c.heap) == 0
}

// submission is one buffered order with its arrival sequence number,
// which breaks PostTime ties first-come-first-released, and whether its
// rider asked to cancel before the release.
type submission struct {
	order    trace.Order
	seq      int64
	canceled bool
}

// submissionLess orders ChannelSource's heap by (PostTime, seq).
func submissionLess(a, b submission) bool {
	if a.order.PostTime != b.order.PostTime {
		return a.order.PostTime < b.order.PostTime
	}
	return a.seq < b.seq
}
