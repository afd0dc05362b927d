package server

import (
	"encoding/json"
	"sync"

	"mrvd"
	"mrvd/internal/geo"
)

// event is one SSE payload. Type is one of "batch", "assigned",
// "expired", "canceled", "declined", "repositioned", "pickup",
// "dropoff" (the last two only with pooling enabled).
type event struct {
	Type string  `json:"type"`
	T    float64 `json:"t"` // engine time
	// Every optional field is a pointer: 0 is a legitimate value for
	// all of them (batch 0, order 0, zero waiting, a zero-deadhead
	// pickup), so presence — not non-zeroness — marks which fields an
	// event type carries.
	Batch  *int   `json:"batch,omitempty"`
	Order  *int64 `json:"order,omitempty"`
	Driver *int64 `json:"driver,omitempty"`

	Waiting    *int     `json:"waiting,omitempty"`
	Available  *int     `json:"available,omitempty"`
	PickupCost *float64 `json:"pickup_cost,omitempty"`
	Revenue    *float64 `json:"revenue,omitempty"`
	FreeAt     *float64 `json:"free_at,omitempty"`

	From *pointJSON `json:"from,omitempty"`
	To   *pointJSON `json:"to,omitempty"`

	// Pooling-only fields: pooled assignments carry shared/detour,
	// pickup and dropoff stop completions carry onboard/stops. None is
	// ever set with pooling off, so the stream stays byte-identical.
	Shared  *bool    `json:"shared,omitempty"`
	Detour  *float64 `json:"detour_seconds,omitempty"`
	Onboard *int     `json:"onboard,omitempty"`
	Stops   *int     `json:"stops,omitempty"`
	// At is the stop's committed arrival time (pickup/dropoff events
	// fire at the next batch boundary, so At <= T).
	At *float64 `json:"at,omitempty"`
}

// pointJSON is the wire form of a coordinate.
type pointJSON struct {
	Lng float64 `json:"lng"`
	Lat float64 `json:"lat"`
}

func toPoint(p geo.Point) pointJSON { return pointJSON{Lng: p.Lng, Lat: p.Lat} }

func ptr[T any](v T) *T { return &v }

// hub fans dispatch events out to SSE subscribers. Publishing never
// blocks the engine goroutine: a subscriber that cannot keep up has
// events dropped, and serialization is skipped entirely while nobody
// is listening.
type hub struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
}

func newHub() *hub { return &hub{subs: make(map[chan []byte]struct{})} }

// subscribe registers a buffered event channel. It returns nil when the
// hub is already closed (session over).
func (h *hub) subscribe() chan []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	ch := make(chan []byte, 256)
	h.subs[ch] = struct{}{}
	return ch
}

func (h *hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// active reports whether anyone is listening, letting the observer skip
// JSON marshaling on the engine goroutine when nobody is.
func (h *hub) active() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// publish fans one serialized event out, dropping it for subscribers
// with a full buffer.
func (h *hub) publish(payload []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- payload:
		default: // slow consumer: drop rather than stall the engine
		}
	}
}

// closeAll ends every subscription; subsequent subscribes fail.
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// emit publishes the event build returns, calling build only if anyone
// listens: an event's pointer fields escape, so building one allocates.
func (h *hub) emit(build func() event) {
	if !h.active() {
		return
	}
	payload, err := json.Marshal(build())
	if err != nil {
		return
	}
	h.publish(payload)
}

// observer adapts engine events into hub broadcasts.
func (h *hub) observer() mrvd.Observer {
	return mrvd.ObserverFuncs{
		BatchStart: func(e mrvd.BatchStartEvent) {
			h.emit(func() event {
				return event{Type: "batch", T: e.Now, Batch: ptr(e.Batch),
					Waiting: ptr(e.Waiting), Available: ptr(e.Available)}
			})
		},
		Assigned: func(e mrvd.AssignedEvent) {
			h.emit(func() event {
				ev := event{Type: "assigned", T: e.Now,
					Order: ptr(int64(e.Rider.Order.ID)), Driver: ptr(int64(e.Driver)),
					PickupCost: ptr(e.PickupCost), Revenue: ptr(e.Revenue), FreeAt: ptr(e.FreeAt)}
				if e.Shared {
					ev.Shared = ptr(true)
					ev.Detour = ptr(e.DetourSeconds)
					ev.Onboard = ptr(e.Onboard)
					ev.Stops = ptr(e.Stops)
				}
				return ev
			})
		},
		Expired: func(e mrvd.ExpiredEvent) {
			h.emit(func() event { return event{Type: "expired", T: e.Now, Order: ptr(int64(e.Rider.Order.ID))} })
		},
		Canceled: func(e mrvd.CanceledEvent) {
			h.emit(func() event { return event{Type: "canceled", T: e.Now, Order: ptr(int64(e.Rider.Order.ID))} })
		},
		Declined: func(e mrvd.DeclinedEvent) {
			h.emit(func() event {
				return event{Type: "declined", T: e.Now,
					Order: ptr(int64(e.Rider.Order.ID)), Driver: ptr(int64(e.Driver)),
					FreeAt: ptr(e.RetryAt)}
			})
		},
		Repositioned: func(e mrvd.RepositionedEvent) {
			h.emit(func() event {
				from, to := toPoint(e.From), toPoint(e.To)
				return event{Type: "repositioned", T: e.Now, Driver: ptr(int64(e.Driver)),
					From: &from, To: &to, FreeAt: ptr(e.ArriveAt)}
			})
		},
		PickedUp: func(e mrvd.PickedUpEvent) {
			h.emit(func() event {
				return event{Type: "pickup", T: e.Now, At: ptr(e.At),
					Order: ptr(int64(e.Order)), Driver: ptr(int64(e.Driver)),
					Onboard: ptr(e.Onboard), Stops: ptr(e.Remaining)}
			})
		},
		DroppedOff: func(e mrvd.DroppedOffEvent) {
			h.emit(func() event {
				ev := event{Type: "dropoff", T: e.Now, At: ptr(e.At),
					Order: ptr(int64(e.Order)), Driver: ptr(int64(e.Driver)),
					Onboard: ptr(e.Onboard), Stops: ptr(e.Remaining)}
				if e.Shared {
					ev.Shared = ptr(true)
					ev.Detour = ptr(e.DetourSeconds)
				}
				return ev
			})
		},
	}
}
