package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mrvd"
	"mrvd/internal/roadnet"
)

// submitAt posts one order with explicit endpoints.
func submitAt(t *testing.T, ts *httptest.Server, wait bool, pickup, dropoff pointJSON, patience float64) (*http.Response, orderResponse) {
	t.Helper()
	body, _ := json.Marshal(orderRequest{Pickup: pickup, Dropoff: dropoff, PatienceSeconds: patience})
	url := ts.URL + "/v1/orders"
	if wait {
		url += "?wait=true"
	}
	resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var or orderResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, or
}

func deleteOrder(t *testing.T, ts *httptest.Server, id int64) (*http.Response, orderResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/orders/"+itoa(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var or orderResponse
	if resp.StatusCode < 300 {
		_ = json.NewDecoder(resp.Body).Decode(&or)
	}
	return resp, or
}

func itoa(id int64) string {
	b, _ := json.Marshal(id)
	return string(b)
}

// TestEndToEndDisruptions drives all three disruptions through the HTTP
// gateway against one serve session: a rider cancel via DELETE resolves
// the order's long-poll, a driver-declined assignment re-dispatches to
// a successful assignment, and noisy realized travel times reconcile
// against the estimate-vs-realized ledger in the final metrics.
func TestEndToEndDisruptions(t *testing.T) {
	// Pick a scenario seed whose first decline draw rejects and second
	// accepts, so the declined order's lifecycle is deterministic:
	// decline → cooldown → re-dispatch → assigned.
	const declineProb = 0.5
	seed := int64(-1)
	for s := int64(0); s < 1000; s++ {
		r := rand.New(rand.NewSource(s))
		if r.Float64() < declineProb && r.Float64() >= declineProb {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with decline-then-accept draws")
	}

	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 2000, Seed: 17})
	box := city.Grid().Bounds()
	const fleet = 20
	starts := make([]mrvd.Point, fleet)
	for i := range starts {
		starts[i] = mrvd.Point{Lng: box.MinLng + 1e-3 + float64(i%5)*2e-4, Lat: box.MinLat + 1e-3}
	}
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(fleet),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(10*365*24*3600),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
		// Paced so the canceled order's engine-time patience outlives
		// the test's wall-clock DELETE; a free-running engine would
		// expire it in milliseconds.
		mrvd.WithPace(100),
		mrvd.WithScenario(mrvd.ScenarioConfig{
			DeclineProb: declineProb,
			TravelNoise: 0.25,
			Seed:        seed,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(t.Context(), svc, Config{Algorithm: "NEAR", Fleet: fleet, Starts: starts})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	nearFleet := pointJSON{Lng: box.MinLng + 1e-3, Lat: box.MinLat + 1e-3}
	nearDrop := pointJSON{Lng: box.MinLng + 2e-2, Lat: box.MinLat + 1e-2}
	farCorner := pointJSON{Lng: box.MaxLng - 1e-3, Lat: box.MaxLat - 1e-3}

	// --- (1) Rider cancel via DELETE resolves the long-poll. ---
	// The far-corner pickup is deadline-infeasible from the fleet's
	// corner (the trip there costs more than the whole patience), so
	// the order waits until the DELETE. The session's first order gets
	// id 0; the long-poll runs concurrently.
	const farPatience = 3000
	minPickup := roadnet.NewDefaultCoster().Cost(
		mrvd.Point{Lng: starts[0].Lng, Lat: starts[0].Lat},
		mrvd.Point{Lng: farCorner.Lng, Lat: farCorner.Lat})
	if minPickup <= farPatience {
		t.Fatalf("setup: far corner reachable in %.0fs, patience %v", minPickup, farPatience)
	}
	waitDone := make(chan orderResponse, 1)
	go func() {
		_, or := submitAt(t, ts, true, farCorner, nearDrop, farPatience)
		waitDone <- or
	}()
	// The DELETE races the POST's acceptance: retry until the order is
	// known to the session.
	var delResp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; {
		delResp, _ = deleteOrder(t, ts, 0)
		if delResp.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if delResp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /v1/orders/0: status %d, want 202", delResp.StatusCode)
	}
	select {
	case or := <-waitDone:
		if or.Status != "canceled_by_rider" {
			t.Fatalf("long-poll resolved %q, want canceled_by_rider", or.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancel never resolved the long-poll")
	}
	var view orderResponse
	if resp := getJSON(t, ts, "/v1/orders/0", &view); resp.StatusCode != 200 {
		t.Fatalf("GET canceled order: %d", resp.StatusCode)
	}
	if view.Status != "canceled_by_rider" || view.Canceled == nil {
		t.Fatalf("canceled order view %+v", view)
	}
	// Cancelling a terminal order is refused with its current view.
	if resp, _ := deleteOrder(t, ts, 0); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := deleteOrder(t, ts, 999); resp.StatusCode != http.StatusNotFound {
		t.Fatal("DELETE of unknown order not 404")
	}

	// --- (2) A declined assignment re-dispatches successfully. ---
	// First commit draw declines (driver cooldown), second accepts: the
	// long-poll still ends assigned, with the decline on the record.
	resp, or := submitAt(t, ts, true, nearFleet, nearDrop, 3000)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feasible order: status %d", resp.StatusCode)
	}
	if or.Status != "assigned" || or.Assigned == nil {
		t.Fatalf("declined order did not re-dispatch: %+v", or)
	}
	if or.Declines != 1 {
		t.Fatalf("order survived %d declines, want exactly 1", or.Declines)
	}
	var stats statsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Engine.Declined != 1 || stats.Engine.Canceled != 1 {
		t.Fatalf("engine stats declined=%d canceled=%d, want 1/1", stats.Engine.Declined, stats.Engine.Canceled)
	}

	// --- (3) Noisy travel times reconcile in the ledger. ---
	srv.Drain()
	m, err := srv.Result()
	if err != nil {
		t.Fatal(err)
	}
	if m.Canceled != 1 || m.Declines != 1 || m.Served != 1 {
		t.Fatalf("session metrics: canceled=%d declines=%d served=%d, want 1/1/1", m.Canceled, m.Declines, m.Served)
	}
	if len(m.TravelRecords) != 1 {
		t.Fatalf("%d travel records, want 1", len(m.TravelRecords))
	}
	rec := m.TravelRecords[0]
	if rec.TripRealized == rec.TripEstimate && rec.PickupRealized == rec.PickupEstimate {
		t.Fatalf("noise perturbed nothing: %+v", rec)
	}
	// The ledger's realized values are exactly what the API reported
	// back to the rider and what the books collected.
	if or.Assigned.PickupCost != rec.PickupRealized || or.Assigned.Revenue != rec.TripRealized {
		t.Fatalf("API outcome (pickup %v, revenue %v) disagrees with ledger %+v",
			or.Assigned.PickupCost, or.Assigned.Revenue, rec)
	}
	if math.Abs(m.Revenue-rec.TripRealized) > 1e-9 || math.Abs(m.PickupSeconds-rec.PickupRealized) > 1e-9 {
		t.Fatalf("metrics (revenue %v, pickup %v) disagree with ledger %+v", m.Revenue, m.PickupSeconds, rec)
	}
}

// TestCancelWhileBookingNeverConflicts races a DELETE against the POST
// that books the order, the way TestEndToEndDisruptions' retry loop
// does: until the order is booked the DELETE must answer 404 (retry),
// and once it is, 202 — never 409, which means "no longer in flight".
// The order is deadline-infeasible, so nothing but the cancel can end
// it. A handler that asks whether the order is booked after a failed
// Cancel answers 409 a few times per thousand rounds.
func TestCancelWhileBookingNeverConflicts(t *testing.T) {
	city := mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 2000, Seed: 17})
	box := city.Grid().Bounds()
	const fleet = 4
	starts := make([]mrvd.Point, fleet)
	for i := range starts {
		starts[i] = mrvd.Point{Lng: box.MinLng + 1e-3, Lat: box.MinLat + 1e-3}
	}
	svc, err := mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(fleet),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(10*365*24*3600),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
		mrvd.WithPace(100),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(t.Context(), svc, Config{Algorithm: "NEAR", Fleet: fleet, Starts: starts, MaxPending: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(orderRequest{
		Pickup:          pointJSON{Lng: box.MaxLng - 1e-3, Lat: box.MaxLat - 1e-3},
		Dropoff:         pointJSON{Lng: box.MaxLng - 2e-3, Lat: box.MaxLat - 2e-3},
		PatienceSeconds: 3000,
	})
	var posts sync.WaitGroup
	defer posts.Wait()
	for id := int64(0); id < 1500; id++ {
		posts.Add(1)
		go func() {
			defer posts.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/orders", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
		for {
			resp, _ := deleteOrder(t, ts, id)
			if resp.StatusCode == http.StatusNotFound {
				continue
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("DELETE /v1/orders/%d while it was being booked: status %d, want 404 then 202", id, resp.StatusCode)
			}
			break
		}
	}
}
