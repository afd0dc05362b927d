package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mrvd"
	"mrvd/internal/sim"
)

// newTestService builds a small live-serve service. pace 0 free-runs
// the engine (orders resolve within wall-microseconds, the e2e mode);
// pace 1 runs batches every Delta wall-seconds (the backpressure mode,
// where submissions pile up between batches).
func newTestService(t testing.TB, fleet int, pace float64) *mrvd.Service {
	t.Helper()
	opts := []mrvd.Option{
		mrvd.WithCity(mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 2000, Seed: 17})),
		mrvd.WithFleet(fleet),
		mrvd.WithBatchInterval(3),
		// Ten simulated years: far beyond what even a free-running
		// engine burns through during a test, so sessions end the way
		// each test dictates (cancel or drain), never at the horizon.
		mrvd.WithHorizon(10 * 365 * 24 * 3600),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
	}
	if pace > 0 {
		opts = append(opts, mrvd.WithPace(pace))
	}
	svc, err := mrvd.NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func newTestServer(t testing.TB, fleet int, pace float64, cfg Config) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Fleet = fleet
	srv, err := New(ctx, newTestService(t, fleet, pace), cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		cancel()
		<-srv.Handle().Done()
		ts.Close()
	})
	return srv, ts, cancel
}

func postOrder(t *testing.T, ts *httptest.Server, wait bool, patience float64) (*http.Response, orderResponse) {
	t.Helper()
	body, _ := json.Marshal(orderRequest{
		Pickup:          pointJSON{Lng: -73.97, Lat: 40.75},
		Dropoff:         pointJSON{Lng: -73.95, Lat: 40.77},
		PatienceSeconds: patience,
	})
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

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func TestGatewaySubmitWaitResolves(t *testing.T) {
	_, ts, _ := newTestServer(t, 20, 0, Config{Algorithm: "NEAR"})
	resp, or := postOrder(t, ts, true, 1e6)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if or.Status != "assigned" {
		t.Fatalf("order status %q, want assigned", or.Status)
	}
	if or.Driver == nil || or.Assigned == nil {
		t.Fatal("assigned order missing driver/assignment detail")
	}
	if or.WaitMS <= 0 {
		t.Error("wait latency not reported")
	}

	// The state store agrees with the long-poll result.
	var view orderResponse
	if got := getJSON(t, ts, fmt.Sprintf("/v1/orders/%d", or.ID), &view); got.StatusCode != http.StatusOK {
		t.Fatalf("GET order status %d", got.StatusCode)
	}
	if view.Status != "assigned" || view.Driver == nil || *view.Driver != *or.Driver {
		t.Errorf("stored view %+v diverges from outcome %+v", view, or)
	}
}

func TestGatewaySubmitAsync(t *testing.T) {
	_, ts, _ := newTestServer(t, 20, 0, Config{Algorithm: "NEAR"})
	resp, or := postOrder(t, ts, false, 1e6)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	// Eventually terminal via polling the read API.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var view orderResponse
		getJSON(t, ts, fmt.Sprintf("/v1/orders/%d", or.ID), &view)
		if view.Status == "assigned" || view.Status == "expired" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("order %d stuck in %q", or.ID, view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	srv, ts, _ := newTestServer(t, 5, 0, Config{Algorithm: "NEAR"})
	resp, err := ts.Client().Post(ts.URL+"/v1/orders", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Finite coordinates outside the city grid — an empty object decodes
	// to (0,0) twice — are refused before the ledger books anything.
	for name, body := range map[string]string{
		"empty object":     `{}`,
		"pickup at origin": `{"pickup":{"lng":0,"lat":0},"dropoff":{"lng":-73.95,"lat":40.77}}`,
		"off-grid dropoff": `{"pickup":{"lng":-73.97,"lat":40.75},"dropoff":{"lng":-73.95,"lat":41.5}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/orders", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st := srv.Store().Stats(); st.Submitted != 0 || len(srv.Store().Orders()) != 0 {
		t.Errorf("rejected orders reached the ledger: %+v", st)
	}
	if got := getJSON(t, ts, "/v1/orders/999999", nil); got.StatusCode != http.StatusNotFound {
		t.Errorf("unknown order: status %d, want 404", got.StatusCode)
	}
	if got := getJSON(t, ts, "/v1/orders/abc", nil); got.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric id: status %d, want 400", got.StatusCode)
	}
}

// TestGatewayOrderIDOutsideLedger: ids parsed from the path index the
// store's order slice, so a negative id and the largest int32 must read
// as unknown — 404 on GET and DELETE alike — next to a booked order.
func TestGatewayOrderIDOutsideLedger(t *testing.T) {
	_, ts, _ := newTestServer(t, 5, 0, Config{Algorithm: "NEAR"})
	if resp, _ := postOrder(t, ts, true, 600); resp.StatusCode != http.StatusOK {
		t.Fatalf("booking order 0: status %d", resp.StatusCode)
	}
	for _, id := range []int64{-1, 2147483647} {
		if got := getJSON(t, ts, "/v1/orders/"+itoa(id), nil); got.StatusCode != http.StatusNotFound {
			t.Errorf("GET order %d: status %d, want 404", id, got.StatusCode)
		}
		if got, _ := deleteOrder(t, ts, id); got.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE order %d: status %d, want 404", id, got.StatusCode)
		}
	}
}

// TestGatewaySubmitBodyLimit: POST /v1/orders reads at most
// maxOrderBytes — an oversized body is refused with 413 instead of being
// buffered, and the largest order a client can legitimately send (every
// number at full float64 precision, pretty-printed) still fits.
func TestGatewaySubmitBodyLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, 5, 0, Config{Algorithm: "NEAR"})
	post := func(body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/orders", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	valid := `{
		"pickup":  {"lng": -73.97012345678901234, "lat": 40.75012345678901234},
		"dropoff": {"lng": -73.95098765432109876, "lat": 40.77098765432109876},
		"patience_seconds": 1.7976931348623157e+308
	}`
	if got := post(valid); got != http.StatusAccepted {
		t.Errorf("maximal valid order (%d bytes): status %d, want 202", len(valid), got)
	}
	// The same order with its closing brace pushed past the cap.
	oversized := strings.TrimSuffix(valid, "}") + strings.Repeat(" ", maxOrderBytes) + "}"
	if got := post(oversized); got != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(oversized), got)
	}
}

// TestGatewayBackpressure pins the admission-control contract: with the
// engine paced (a batch only every 3 wall-seconds) and a small pending
// bound, a burst of submissions overflows the queue and overflow gets
// 429, not unbounded buffering.
func TestGatewayBackpressure(t *testing.T) {
	const maxPending = 8
	_, ts, _ := newTestServer(t, 4, 1, Config{Algorithm: "NEAR", MaxPending: maxPending})
	accepted, rejected := 0, 0
	for i := 0; i < 4*maxPending; i++ {
		resp, _ := postOrder(t, ts, false, 1e6)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if rejected == 0 {
		t.Fatal("no 429 despite overflowing the pending queue")
	}
	if accepted < maxPending {
		t.Errorf("accepted %d, want at least the bound %d", accepted, maxPending)
	}
	var stats statsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.MaxPending != maxPending {
		t.Errorf("stats max_pending = %d, want %d", stats.MaxPending, maxPending)
	}
	if stats.InFlight > maxPending {
		t.Errorf("in-flight %d exceeds the bound %d", stats.InFlight, maxPending)
	}
}

// TestGatewayBackpressureConcurrent fires a parallel burst at a small
// bound: the limit is reserved atomically inside Submit, so in-flight
// must never exceed it no matter how many requests race the check.
func TestGatewayBackpressureConcurrent(t *testing.T) {
	const maxPending = 8
	srv, ts, _ := newTestServer(t, 4, 1, Config{Algorithm: "NEAR", MaxPending: maxPending})
	const burst = 64
	codes := make(chan int, burst)
	body, _ := json.Marshal(orderRequest{
		Pickup:          pointJSON{Lng: -73.97, Lat: 40.75},
		Dropoff:         pointJSON{Lng: -73.95, Lat: 40.77},
		PatienceSeconds: 1e6,
	})
	for i := 0; i < burst; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/orders", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	accepted, rejected := 0, 0
	for i := 0; i < burst; i++ {
		switch <-codes {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatal("unexpected submit result")
		}
	}
	// A 3s-paced batch may resolve a few waiters mid-burst (freeing
	// slots), so accepted can exceed the bound by at most what one
	// batch can assign or expire — never by the raced check itself.
	if accepted < maxPending || rejected == 0 {
		t.Fatalf("accepted=%d rejected=%d with bound %d", accepted, rejected, maxPending)
	}
	if got := srv.Handle().InFlight(); got > maxPending {
		t.Errorf("in-flight %d exceeds the bound %d after concurrent burst", got, maxPending)
	}
}

func TestGatewayDriversAndStats(t *testing.T) {
	const fleet = 12
	_, ts, _ := newTestServer(t, fleet, 0, Config{Algorithm: "NEAR"})
	const n = 10
	for i := 0; i < n; i++ {
		if resp, _ := postOrder(t, ts, true, 1e6); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	var drivers []driverResponse
	getJSON(t, ts, "/v1/drivers", &drivers)
	if len(drivers) != fleet {
		t.Fatalf("drivers listed: %d, want %d", len(drivers), fleet)
	}
	served := 0
	for _, d := range drivers {
		served += d.Served
	}
	var stats statsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Engine.Submitted != n {
		t.Errorf("stats submitted = %d, want %d", stats.Engine.Submitted, n)
	}
	if stats.Engine.Assigned+stats.Engine.Expired != n {
		t.Errorf("terminal outcomes %d+%d, want %d",
			stats.Engine.Assigned, stats.Engine.Expired, n)
	}
	if served != stats.Engine.Assigned {
		t.Errorf("driver served sum %d != assigned %d", served, stats.Engine.Assigned)
	}
	if stats.Engine.Batch == 0 || stats.Engine.Clock == 0 {
		t.Error("engine clock/batch counters not advancing")
	}
	if stats.InFlight != 0 {
		t.Errorf("in-flight %d after all outcomes, want 0", stats.InFlight)
	}

	var all []orderResponse
	getJSON(t, ts, "/v1/orders", &all)
	if len(all) != n {
		t.Errorf("order list length %d, want %d", len(all), n)
	}
}

func TestGatewayEventsSSE(t *testing.T) {
	_, ts, _ := newTestServer(t, 8, 0, Config{Algorithm: "NEAR"})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/events", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// Submit one order; the stream must carry its assignment (and the
	// free-running engine's batch events around it).
	go func() {
		body, _ := json.Marshal(orderRequest{
			Pickup:          pointJSON{Lng: -73.97, Lat: 40.75},
			Dropoff:         pointJSON{Lng: -73.95, Lat: 40.77},
			PatienceSeconds: 1e6,
		})
		r, err := ts.Client().Post(ts.URL+"/v1/orders", "application/json", bytes.NewReader(body))
		if err == nil {
			r.Body.Close()
		}
	}()
	scanner := bufio.NewScanner(resp.Body)
	sawBatch, sawAssigned := false, false
	deadline := time.Now().Add(20 * time.Second)
	for scanner.Scan() && time.Now().Before(deadline) {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "batch":
			sawBatch = true
		case "assigned", "expired":
			sawAssigned = true
		}
		if sawBatch && sawAssigned {
			return
		}
	}
	t.Fatalf("stream ended early: batch=%v assigned=%v (scan err %v)", sawBatch, sawAssigned, scanner.Err())
}

// TestHubObserverWithoutSubscriberAllocatesNothing: with no SSE client
// the hub's observer runs on the engine goroutine every batch and every
// assignment, and must return before it builds an event.
func TestHubObserverWithoutSubscriberAllocatesNothing(t *testing.T) {
	o := newHub().observer()
	rider := &sim.Rider{Order: mrvd.Order{ID: 7}}
	batch := mrvd.BatchStartEvent{Now: 30, Batch: 10, Waiting: 2, Available: 5}
	assigned := mrvd.AssignedEvent{Now: 30, Rider: rider, Driver: 3, PickupCost: 60, Revenue: 400, FreeAt: 490}
	if n := testing.AllocsPerRun(100, func() { o.OnBatchStart(batch) }); n != 0 {
		t.Errorf("BatchStart allocates %v objects with no subscriber, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { o.OnAssigned(assigned) }); n != 0 {
		t.Errorf("Assigned allocates %v objects with no subscriber, want 0", n)
	}
}

// TestHubStalledSubscriberNeverBlocksPublisher: an SSE subscriber that
// never reads must not stall the engine goroutine. Publishing far past
// the subscription's buffer returns at once, keeps the oldest payloads
// (the rest are dropped), and closeAll still closes the channel.
func TestHubStalledSubscriberNeverBlocksPublisher(t *testing.T) {
	const buffer, published = 256, 4 * 256
	h := newHub()
	ch := h.subscribe()
	if ch == nil {
		t.Fatal("subscribe on an open hub returned nil")
	}
	o := h.observer()
	done := make(chan struct{})
	go func() { // stands in for the engine goroutine
		defer close(done)
		for i := 0; i < published; i++ {
			o.OnBatchStart(mrvd.BatchStartEvent{Now: float64(3 * i), Batch: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publishing to a stalled subscriber blocked the engine goroutine")
	}
	if n := len(ch); n != buffer || cap(ch) != buffer {
		t.Fatalf("stalled subscriber holds %d payloads in a buffer of %d, want a full buffer of %d", n, cap(ch), buffer)
	}

	h.closeAll()
	for i := 0; i < buffer; i++ {
		var ev event
		if err := json.Unmarshal(<-ch, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Batch == nil || *ev.Batch != i {
			t.Fatalf("payload %d is batch %v, want the oldest events kept in order", i, ev.Batch)
		}
	}
	select {
	case payload, ok := <-ch:
		if ok {
			t.Fatalf("payload %q past the buffer, want the channel closed", payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closeAll left the stalled subscriber's channel open")
	}
}

func TestGatewayHealthAndShutdown(t *testing.T) {
	srv, ts, cancel := newTestServer(t, 5, 0, Config{Algorithm: "NEAR"})
	if got := getJSON(t, ts, "/healthz", nil); got.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", got.StatusCode)
	}
	cancel()
	<-srv.Handle().Done()
	if got := getJSON(t, ts, "/healthz", nil); got.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", got.StatusCode)
	}
	// Submits after shutdown are the service going away (503), not a
	// client error, and fail rather than hanging.
	resp, _ := postOrder(t, ts, false, 100)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", resp.StatusCode)
	}
	// SSE subscriptions are refused once the hub closed.
	if got := getJSON(t, ts, "/v1/events", nil); got.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("events after shutdown: %d, want 503", got.StatusCode)
	}
}

// TestGatewayStopReadsCanceled: an order still pending when the session
// is stopped turns "canceled" in the one ledger, so its long-poll and a
// later GET tell the same story.
func TestGatewayStopReadsCanceled(t *testing.T) {
	// Paced at real time with 3 s batches: nothing dispatches between
	// the submit and the stop.
	srv, ts, cancel := newTestServer(t, 4, 1, Config{Algorithm: "NEAR"})
	polled := make(chan orderResponse, 1)
	go func() {
		_, or := postOrder(t, ts, true, 1e6)
		polled <- or
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Handle().InFlight() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("order never booked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	or := <-polled
	if or.Status != "canceled" {
		t.Fatalf("long-poll of a stopped session ended %q, want canceled", or.Status)
	}
	var view orderResponse
	if got := getJSON(t, ts, fmt.Sprintf("/v1/orders/%d", or.ID), &view); got.StatusCode != http.StatusOK {
		t.Fatalf("GET order status %d", got.StatusCode)
	}
	if view.Status != "canceled" {
		t.Errorf("stopped order reads %q, its long-poll said canceled", view.Status)
	}
}

func TestGatewayDrain(t *testing.T) {
	srv, ts, _ := newTestServer(t, 10, 0, Config{Algorithm: "NEAR"})
	for i := 0; i < 5; i++ {
		if resp, _ := postOrder(t, ts, true, 1e6); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d failed", i)
		}
	}
	srv.Drain()
	// A submit during/after the drain is the service going away: 503,
	// not a 4xx blaming the order.
	if resp, _ := postOrder(t, ts, false, 100); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", resp.StatusCode)
	}
	m, err := srv.Result()
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Reneged != 5 {
		t.Errorf("final metrics %d+%d, want 5", m.Served, m.Reneged)
	}
}
