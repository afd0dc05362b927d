package sim

import (
	"context"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// recordingObserver counts events and cross-checks them against the
// final Metrics. It also folds the terminal events per order id: ends
// holds each order's last one, and twice lists every order that reached
// a second. A pooled rider's cancel after its assignment is not a
// second end: it rolls the assignment back and replaces it.
type recordingObserver struct {
	batches, assigned, expired, repositioned int
	canceled, declined                       int
	pickedUp, droppedOff                     int
	revenue                                  float64
	lastNow                                  float64
	ends                                     map[trace.OrderID]terminal
	twice                                    []trace.OrderID
}

// terminal is one order's end: the rider the event carried, and the
// status the event gave it.
type terminal struct {
	rider *Rider
	as    RiderStatus
}

func (r *recordingObserver) end(rider *Rider, as RiderStatus) {
	if r.ends == nil {
		r.ends = make(map[trace.OrderID]terminal)
	}
	id := rider.Order.ID
	if prev, ok := r.ends[id]; ok && !(prev.as == AssignedStatus && as == CanceledStatus) {
		r.twice = append(r.twice, id)
	}
	r.ends[id] = terminal{rider, as}
}

// rider returns the rider of order id's terminal event, nil if none.
func (r *recordingObserver) rider(id trace.OrderID) *Rider { return r.ends[id].rider }

func (r *recordingObserver) OnBatchStart(e BatchStartEvent) {
	if e.Now < r.lastNow {
		panic("batch time went backwards")
	}
	r.lastNow = e.Now
	r.batches++
}
func (r *recordingObserver) OnAssigned(e AssignedEvent) {
	r.assigned++
	r.revenue += e.Revenue
	r.end(e.Rider, AssignedStatus)
}
func (r *recordingObserver) OnExpired(e ExpiredEvent) {
	r.expired++
	r.end(e.Rider, RenegedStatus)
}
func (r *recordingObserver) OnCanceled(e CanceledEvent) {
	r.canceled++
	r.end(e.Rider, CanceledStatus)
}
func (r *recordingObserver) OnDeclined(e DeclinedEvent)         { r.declined++ }
func (r *recordingObserver) OnRepositioned(e RepositionedEvent) { r.repositioned++ }
func (r *recordingObserver) OnPickedUp(e PickedUpEvent)         { r.pickedUp++ }
func (r *recordingObserver) OnDroppedOff(e DroppedOffEvent)     { r.droppedOff++ }

func TestObserverEventsMatchMetrics(t *testing.T) {
	orders := []trace.Order{
		mkOrder(0, 5, 300),
		mkOrder(1, 10, 320),
		mkOrder(2, 15, 16), // expires almost immediately: no driver nearby in time
	}
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	e := New(cfg, orders, []geo.Point{center(), offset(center(), 600)})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.batches != m.Batches {
		t.Errorf("observer saw %d batches, metrics say %d", rec.batches, m.Batches)
	}
	if rec.assigned != m.Served {
		t.Errorf("observer saw %d assignments, metrics say %d served", rec.assigned, m.Served)
	}
	if rec.expired != m.Reneged {
		t.Errorf("observer saw %d expiries, metrics say %d reneged", rec.expired, m.Reneged)
	}
	if rec.revenue != m.Revenue {
		t.Errorf("observer revenue %v != metrics %v", rec.revenue, m.Revenue)
	}
}

func TestObserverRepositionEvents(t *testing.T) {
	orders := []trace.Order{mkOrder(0, 5, 300)}
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = rec
	cfg.Repositioner = alwaysEast{}
	cfg.RepositionAfter = 60
	e := New(cfg, orders, []geo.Point{center()})
	if _, err := e.Run(context.Background(), noop{}); err != nil {
		t.Fatal(err)
	}
	if rec.repositioned == 0 {
		t.Error("no reposition events observed")
	}
}

// alwaysEast proposes a fixed eastward cruise.
type alwaysEast struct{}

func (alwaysEast) Target(ctx *Context, d *Driver, region geo.RegionID) (geo.Point, bool) {
	return offset(d.Pos, 2000), true
}

func TestObserverFuncsAndFanOut(t *testing.T) {
	var starts, assigns int
	funcs := ObserverFuncs{
		BatchStart: func(BatchStartEvent) { starts++ },
		Assigned:   func(AssignedEvent) { assigns++ },
		// Expired/Repositioned left nil: must be skipped, not crash.
	}
	rec := &recordingObserver{}
	cfg := simpleConfig()
	cfg.Observer = Observers{funcs, rec}
	orders := []trace.Order{mkOrder(0, 5, 300), mkOrder(1, 6, 7)}
	e := New(cfg, orders, []geo.Point{center()})
	m, err := e.Run(context.Background(), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if starts != m.Batches || starts != rec.batches {
		t.Errorf("fan-out mismatch: funcs=%d rec=%d metrics=%d", starts, rec.batches, m.Batches)
	}
	if assigns != rec.assigned {
		t.Errorf("assigned fan-out mismatch: %d vs %d", assigns, rec.assigned)
	}
}
