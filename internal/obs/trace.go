package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
)

// Span is one order's lifecycle record: submitted, admitted to an
// engine, committed to a driver, picked up, and terminal (dropped
// off, canceled or reneged). Timestamps are engine seconds; WallMS is
// the only wall-clock field and never feeds a Summary, so tracing
// cannot perturb the determinism contracts.
type Span struct {
	Order   int64  `json:"order"`
	Outcome string `json:"outcome"` // served | canceled | reneged
	Shard   int    `json:"shard"`
	// Driver is the serving driver for served spans, -1 otherwise.
	Driver int64 `json:"driver"`
	// Shared marks a pooled insertion into an active route plan.
	Shared bool `json:"shared,omitempty"`

	SubmitAt  float64 `json:"submit_at"`
	AdmitAt   float64 `json:"admit_at"`
	CommitAt  float64 `json:"commit_at,omitempty"`
	PickupAt  float64 `json:"pickup_at,omitempty"`
	DropoffAt float64 `json:"dropoff_at,omitempty"`
	EndAt     float64 `json:"end_at"`

	// QueueSeconds is admit -> commit (or the terminal time when the
	// order was never committed); PickupSeconds is commit -> pickup and
	// TripSeconds pickup -> dropoff, both zero for unserved spans.
	QueueSeconds  float64 `json:"queue_seconds"`
	PickupSeconds float64 `json:"pickup_seconds,omitempty"`
	TripSeconds   float64 `json:"trip_seconds,omitempty"`

	// WallMS is the wall-clock time from admission to the terminal
	// event — how long the order lived inside the running process.
	WallMS float64 `json:"wall_ms"`
}

// Outcome values for Span.
const (
	OutcomeServed   = "served"
	OutcomeCanceled = "canceled"
	OutcomeReneged  = "reneged"
)

// Tracer serializes Spans as JSON lines to a writer. Emit is safe for
// concurrent use (concurrent sessions share one tracer); the first write
// error is retained and later emits become no-ops. Spans are encoded
// by hand into a buffer reused across emits — reflection-based JSON
// encoding dominated the enabled-tracing overhead (bench/'s
// obs.spans_ratio), and an order-lifecycle span is a closed shape.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	n   int64
	err error
}

// NewTracer returns a tracer writing one JSON object per line to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// Emit writes one span.
func (t *Tracer) Emit(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.buf = appendSpan(t.buf[:0], &s)
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
		return
	}
	t.n++
}

// appendSpan renders s exactly as encoding/json would under the struct
// tags (including omitempty), one object per line. Outcome is one of
// the Outcome* constants, so string escaping is unnecessary.
func appendSpan(b []byte, s *Span) []byte {
	b = append(b, `{"order":`...)
	b = strconv.AppendInt(b, s.Order, 10)
	b = append(b, `,"outcome":"`...)
	b = append(b, s.Outcome...)
	b = append(b, `","shard":`...)
	b = strconv.AppendInt(b, int64(s.Shard), 10)
	b = append(b, `,"driver":`...)
	b = strconv.AppendInt(b, s.Driver, 10)
	if s.Shared {
		b = append(b, `,"shared":true`...)
	}
	b = appendF(b, `,"submit_at":`, s.SubmitAt)
	b = appendF(b, `,"admit_at":`, s.AdmitAt)
	if s.CommitAt != 0 {
		b = appendF(b, `,"commit_at":`, s.CommitAt)
	}
	if s.PickupAt != 0 {
		b = appendF(b, `,"pickup_at":`, s.PickupAt)
	}
	if s.DropoffAt != 0 {
		b = appendF(b, `,"dropoff_at":`, s.DropoffAt)
	}
	b = appendF(b, `,"end_at":`, s.EndAt)
	b = appendF(b, `,"queue_seconds":`, s.QueueSeconds)
	if s.PickupSeconds != 0 {
		b = appendF(b, `,"pickup_seconds":`, s.PickupSeconds)
	}
	if s.TripSeconds != 0 {
		b = appendF(b, `,"trip_seconds":`, s.TripSeconds)
	}
	b = appendF(b, `,"wall_ms":`, s.WallMS)
	return append(b, "}\n"...)
}

// appendF renders one float field. Whole values print as integers and
// the rest at three decimals: shortest-float formatting was the single
// largest cost of an enabled tracer, and millisecond resolution on
// engine seconds (microseconds on wall_ms) is beyond what the trace's
// consumers resolve.
func appendF(b []byte, key string, v float64) []byte {
	b = append(b, key...)
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'f', 3, 64)
}

// Count returns how many spans were written.
func (t *Tracer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close closes the underlying writer when it is an io.Closer and
// returns the first error seen (write or close).
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.w.(io.Closer); ok {
		if err := c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}
