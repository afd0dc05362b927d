package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrvd"
	"mrvd/internal/server"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// live_http's fixed shape: what is served, by whom, at what rate.
const (
	liveOrdersPerDay = 28000
	liveFleet        = 1000
	livePatience     = 600.0 // engine seconds
	liveConnections  = 2     // client connections = generator goroutines (<= nproc)
	liveRate         = 300.0 // open-loop ops/s of the measured phase
	liveWaitBound    = 60 * time.Second
)

// ladderRates are the open-loop rungs of the traced run.
var ladderRates = [...]float64{150, 300, 600, 1200}

// clock is the time source of the load generator; tests inject a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// opKind is one operation of the traffic mix.
type opKind uint8

const (
	opSubmitWait   opKind = iota // POST /v1/orders?wait=true
	opReadOrder                  // GET /v1/orders/{id} of an already-terminal order
	opReadStats                  // GET /v1/stats
	opSubmitCancel               // POST /v1/orders, then DELETE /v1/orders/{id}
)

// plannedOp is one operation as the seed fixed it: its kind, which trip
// it submits and which terminal order it reads.
type plannedOp struct {
	kind     opKind
	endpoint int32
	pick     uint32
}

// planOps draws the operation mix: 80 % submit-and-wait, 10 % order
// reads, 5 % stats reads, 5 % submit-then-cancel.
func planOps(rng *rand.Rand, n, endpoints int) []plannedOp {
	plan := make([]plannedOp, n)
	for i := range plan {
		kind := opSubmitCancel
		switch u := rng.Float64(); {
		case u < 0.80:
			kind = opSubmitWait
		case u < 0.90:
			kind = opReadOrder
		case u < 0.95:
			kind = opReadStats
		}
		plan[i] = plannedOp{kind: kind, endpoint: int32(rng.Intn(endpoints)), pick: rng.Uint32()}
	}
	return plan
}

// opRecord is one executed operation. An open-loop op is timed from its
// due time, so a stall's queueing delay lands on the ops it delayed.
type opRecord struct {
	kind            opKind
	index           int // global op number, echoed in the X-Bench-Op header
	due, start, end time.Time
	status          string // terminal outcome of a long-polled submit
	id              int64
	revenue         float64
	rejected        bool // answered 429
	failed          bool
}

func (r *opRecord) latencyMS() float64  { return float64(r.end.Sub(r.due)) / 1e6 }
func (r *opRecord) latenessMS() float64 { return float64(r.start.Sub(r.due)) / 1e6 }

// openLoop issues len(plan) operations on a fixed schedule — op i is due
// at start + i/rate — from `workers` goroutines that each run one
// operation at a time. A worker that finds the next op already due runs
// it at once; its lateness is then part of that op's latency.
func openLoop(clk clock, start time.Time, rate float64, plan []plannedOp, firstIndex, workers int, do func(p plannedOp, rec *opRecord)) []opRecord {
	recs := make([]opRecord, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				rec := &recs[i]
				rec.kind, rec.index = plan[i].kind, firstIndex+i
				rec.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := rec.due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				rec.start = clk.Now()
				do(plan[i], rec)
				rec.end = clk.Now()
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs submit-and-wait back to back on each worker until the
// deadline: the next op is due when the previous one completed.
func closedLoop(clk clock, until time.Time, plan []plannedOp, firstIndex, workers int, do func(p plannedOp, rec *opRecord)) []opRecord {
	perWorker := make([][]opRecord, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.Now().Before(until) {
				i := int(next.Add(1)) - 1
				p := plan[i%len(plan)]
				p.kind = opSubmitWait
				rec := opRecord{kind: opSubmitWait, index: firstIndex + i, start: clk.Now()}
				rec.due = rec.start
				do(p, &rec)
				rec.end = clk.Now()
				perWorker[w] = append(perWorker[w], rec)
			}
		}()
	}
	wg.Wait()
	var recs []opRecord
	for _, r := range perWorker {
		recs = append(recs, r...)
	}
	return recs
}

// liveProbe is the benchmark's observer on the serve session: the batch
// clock every run carries and, while tracing is on, one stamp per
// assignment. Events arrive on the engine goroutine; the probe is read
// only after the session has ended.
type liveProbe struct {
	batchClock
	tracing atomic.Bool
	stamps  []assignStamp // by order id
}

// assignStamp places an assignment on the wall clock: the start of the
// batch that made it and the OnAssigned event, in ns since the epoch.
type assignStamp struct{ batchStart, assigned int64 }

func (p *liveProbe) OnAssigned(e sim.AssignedEvent) {
	if !p.tracing.Load() {
		return
	}
	id := int(e.Rider.Order.ID)
	for id >= len(p.stamps) {
		p.stamps = append(p.stamps, make([]assignStamp, len(p.stamps)+1024)...)
	}
	p.stamps[id] = assignStamp{batchStart: p.at[len(p.at)-1], assigned: int64(time.Since(p.epoch))}
}

// handleStamp is one traced pass through the gateway's handler.
type handleStamp struct{ in, out int64 }

// tracedHandler wraps the gateway: the time between entry and return is
// the server layer's share of an operation. It records only while
// tracing is on, into a slot owned by the op the client named in
// X-Bench-Op; slots are read after the server has shut down.
type tracedHandler struct {
	next  http.Handler
	probe *liveProbe
	slots []handleStamp
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.probe.tracing.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	i, err := strconv.Atoi(r.Header.Get("X-Bench-Op"))
	t0 := int64(time.Since(h.probe.epoch))
	h.next.ServeHTTP(w, r)
	if err == nil && i >= 0 && i < len(h.slots) {
		// A submit-then-cancel op passes twice; its span runs from the
		// first entry to the last return.
		if h.slots[i].in == 0 {
			h.slots[i].in = t0
		}
		h.slots[i].out = int64(time.Since(h.probe.epoch))
	}
}

// liveStack is one serving stack: service, gateway, loopback listener,
// client.
type liveStack struct {
	probe   *liveProbe
	handler *tracedHandler
	gw      *server.Server
	hs      *http.Server
	cancel  context.CancelFunc
	client  *liveClient
}

// liveClient executes operations over HTTP and keeps what the final
// checks need.
type liveClient struct {
	base      string
	hc        *http.Client
	endpoints []trace.Order

	mu        sync.Mutex
	terminal  []terminalOrder // long-polled orders and the state the poll reported
	cancelIDs []int64         // submit-then-cancel orders, checked after the drain
	submitted int             // submits the gateway accepted
	failures  []string
}

type terminalOrder struct {
	id     int64
	status string
}

type orderReply struct {
	ID         int64  `json:"id"`
	Status     string `json:"status"`
	Assignment *struct {
		Revenue float64 `json:"revenue"`
	} `json:"assignment"`
}

func (c *liveClient) failf(rec *opRecord, format string, args ...any) {
	rec.failed = true
	c.mu.Lock()
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// request performs one HTTP request and decodes a JSON reply into out
// (when non-nil); the body is always drained so the connection is
// reused.
func (c *liveClient) request(rec *opRecord, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Bench-Op", strconv.Itoa(rec.index))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s reply: %w", method, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func (c *liveClient) orderBody(p plannedOp) []byte {
	o := c.endpoints[p.endpoint]
	body, err := json.Marshal(map[string]any{
		"pickup":           map[string]float64{"lng": o.Pickup.Lng, "lat": o.Pickup.Lat},
		"dropoff":          map[string]float64{"lng": o.Dropoff.Lng, "lat": o.Dropoff.Lat},
		"patience_seconds": livePatience,
	})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return body
}

// do executes one planned operation and classifies its reply. An
// expired order is an outcome; an error, a 429/5xx or a long-poll that
// hit the wait bound is a failure.
func (c *liveClient) do(p plannedOp, rec *opRecord) {
	switch p.kind {
	case opSubmitWait:
		var reply orderReply
		code, err := c.request(rec, http.MethodPost, "/v1/orders?wait=true", c.orderBody(p), &reply)
		switch {
		case err != nil:
			c.failf(rec, "submit: %v", err)
		case code == http.StatusTooManyRequests:
			rec.rejected = true
			c.failf(rec, "submit rejected with 429")
		case code != http.StatusOK:
			c.failf(rec, "submit answered %d (status %q)", code, reply.Status)
		case reply.Status != "assigned" && reply.Status != "expired" && reply.Status != "canceled_by_rider":
			c.failf(rec, "order %d long-poll ended %q", reply.ID, reply.Status)
		default:
			rec.id, rec.status = reply.ID, reply.Status
			if reply.Assignment != nil {
				rec.revenue = reply.Assignment.Revenue
			}
			c.mu.Lock()
			c.submitted++
			c.terminal = append(c.terminal, terminalOrder{reply.ID, reply.Status})
			c.mu.Unlock()
		}
	case opReadOrder:
		c.mu.Lock()
		var want terminalOrder
		have := len(c.terminal) > 0
		if have {
			want = c.terminal[int(p.pick)%len(c.terminal)]
		}
		c.mu.Unlock()
		if !have {
			c.failf(rec, "no terminal order to read yet")
			return
		}
		var reply orderReply
		code, err := c.request(rec, http.MethodGet, "/v1/orders/"+strconv.FormatInt(want.id, 10), nil, &reply)
		switch {
		case err != nil:
			c.failf(rec, "read order: %v", err)
		case code != http.StatusOK:
			c.failf(rec, "read order %d answered %d", want.id, code)
		case reply.Status != want.status:
			c.failf(rec, "order %d reads %q, its long-poll said %q", want.id, reply.Status, want.status)
		}
	case opReadStats:
		var stats statsReply
		if code, err := c.request(rec, http.MethodGet, "/v1/stats", nil, &stats); err != nil || code != http.StatusOK {
			c.failf(rec, "read stats: code %d, %v", code, err)
		}
	case opSubmitCancel:
		var reply orderReply
		code, err := c.request(rec, http.MethodPost, "/v1/orders", c.orderBody(p), &reply)
		if err != nil || code != http.StatusAccepted {
			rec.rejected = code == http.StatusTooManyRequests
			c.failf(rec, "submit (no wait): code %d, %v", code, err)
			return
		}
		rec.id = reply.ID
		c.mu.Lock()
		c.submitted++
		c.cancelIDs = append(c.cancelIDs, reply.ID)
		c.mu.Unlock()
		// 202: the engine will adjudicate the cancel; 409: the order was
		// already terminal and the cancel lost the race. Both are the
		// gateway working.
		code, err = c.request(rec, http.MethodDelete, "/v1/orders/"+strconv.FormatInt(reply.ID, 10), nil, nil)
		if err != nil || (code != http.StatusAccepted && code != http.StatusConflict) {
			c.failf(rec, "cancel order %d: code %d, %v", reply.ID, code, err)
		}
	}
}

type statsReply struct {
	Engine sim.StoreStats `json:"engine"`
}

func liveCity() *mrvd.City {
	return mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: liveOrdersPerDay, Seed: 31})
}

// newLiveService builds the served system: a 28K-order city, 1,000
// drivers, IRG without forecasts, free-running at delta 3.
func newLiveService(city *mrvd.City, seed int64, observer mrvd.Observer) (*mrvd.Service, error) {
	return mrvd.NewService(
		mrvd.WithCity(city),
		mrvd.WithFleet(liveFleet),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(1e12), // never reached: the drain ends the session
		mrvd.WithPrediction(mrvd.PredictNone, nil),
		mrvd.WithSeed(seed),
		mrvd.WithObserver(observer),
	)
}

// buildLive brings one serving stack up, through to the first reply on
// each client connection. handlerSlots sizes the traced handler's
// record (0 in a measured run).
func buildLive(seed int64, handlerSlots int) (*liveStack, error) {
	// Capacity for the whole run's batches (~7K/s free-running), so the
	// clock never reallocates inside a measured phase.
	probe := &liveProbe{batchClock: *newBatchClock(1 << 20), stamps: make([]assignStamp, 1<<16)}
	city := liveCity()
	svc, err := newLiveService(city, seed, probe)
	if err != nil {
		return nil, err
	}
	// The trips clients ask for: one generated day of the same city.
	endpoints := city.GenerateDay(0, rand.New(rand.NewSource(seed+1)))
	ctx, cancel := context.WithCancel(context.Background())
	gw, err := server.New(ctx, svc, server.Config{Algorithm: "IRG", Fleet: liveFleet, MaxWait: liveWaitBound})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	st := &liveStack{probe: probe, gw: gw, cancel: cancel}
	st.handler = &tracedHandler{next: gw, probe: probe, slots: make([]handleStamp, handlerSlots)}
	st.hs = &http.Server{Handler: st.handler}
	go st.hs.Serve(ln) // returns ErrServerClosed at shutdown
	st.client = &liveClient{
		base:      "http://" + ln.Addr().String(),
		endpoints: endpoints,
		hc: &http.Client{
			Timeout:   liveWaitBound + 10*time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: liveConnections, MaxConnsPerHost: liveConnections},
		},
	}
	// One submit-and-wait per connection, all due at once: the stack is
	// up when orders come back assigned.
	first := openLoop(wallClock{}, time.Now(), 1e9, make([]plannedOp, liveConnections), 0, liveConnections, st.client.do)
	for _, rec := range first {
		if rec.failed {
			st.close()
			return nil, fmt.Errorf("bench: first requests failed: %v", st.client.failures)
		}
	}
	return st, nil
}

// drain closes the order stream, waits for the session to end and
// returns its metrics; the HTTP server keeps answering reads.
func (st *liveStack) drain() (*mrvd.Metrics, error) {
	st.gw.Drain()
	return st.gw.Result()
}

// close stops the session and the HTTP server and waits for both.
func (st *liveStack) close() {
	st.cancel()
	<-st.gw.Handle().Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.hs.Shutdown(ctx); err != nil {
		st.hs.Close()
	}
	st.client.hc.CloseIdleConnections()
}

// finalChecks runs after the drain: the gateway's books must agree with
// the client's, and every submit-then-cancel order must be terminal.
func (st *liveStack) finalChecks(rep *report) {
	c := st.client
	var stats statsReply
	rec := opRecord{index: -1}
	if code, err := c.request(&rec, http.MethodGet, "/v1/stats", nil, &stats); err != nil || code != http.StatusOK {
		rep.failf("final /v1/stats: code %d, %v", code, err)
		return
	}
	e := stats.Engine
	if e.Submitted != c.submitted {
		rep.failf("gateway counts %d submitted orders, the client %d", e.Submitted, c.submitted)
	}
	if e.Assigned+e.Expired+e.Canceled != e.Submitted {
		rep.failf("after the drain %d assigned + %d expired + %d canceled != %d submitted", e.Assigned, e.Expired, e.Canceled, e.Submitted)
	}
	for _, id := range c.cancelIDs {
		var reply orderReply
		code, err := c.request(&rec, http.MethodGet, "/v1/orders/"+strconv.FormatInt(id, 10), nil, &reply)
		if err != nil || code != http.StatusOK {
			rep.failf("read canceled-mix order %d: code %d, %v", id, code, err)
		} else if reply.Status == string(sim.OrderPending) {
			rep.failf("order %d is still pending after the drain", id)
		}
	}
	for _, f := range c.failures {
		rep.failf("http op: %s", f)
	}
}

// opStats folds a slice of op records into the numbers the report
// needs.
type opStats struct {
	ops, failed, rejected    int
	submitMS, readMS, lateMS []float64 // assigned long-polls; the two GETs; every op
	longPolled, assigned     int
	terminal                 int // orders that reached a terminal outcome the client saw
	revenue                  float64
}

func foldOps(recs []opRecord) opStats {
	var s opStats
	for i := range recs {
		r := &recs[i]
		s.ops++
		s.lateMS = append(s.lateMS, r.latenessMS())
		if r.rejected {
			s.rejected++
		}
		if r.failed {
			s.failed++
			continue
		}
		switch r.kind {
		case opSubmitWait:
			s.longPolled++
			s.terminal++
			if r.status == "assigned" {
				s.assigned++
				s.revenue += r.revenue
				s.submitMS = append(s.submitMS, r.latencyMS())
			}
		case opReadOrder, opReadStats:
			s.readMS = append(s.readMS, r.latencyMS())
		case opSubmitCancel:
			s.terminal++ // verified terminal by finalChecks
		}
	}
	return s
}

// offeredPerS is the rate the generator actually achieved: operations
// started per second up to the last start. It falls below the schedule's
// rate when the connections cannot keep up.
func offeredPerS(recs []opRecord, start time.Time) float64 {
	last := start
	for i := range recs {
		if recs[i].start.After(last) {
			last = recs[i].start
		}
	}
	return ratio(float64(len(recs)), last.Sub(start).Seconds())
}

// liveWindows is how many equal windows a live phase is cut into. Each
// latency is computed per window and the run reports the best window
// (see fastest), so a stall — a scheduler hiccup, a stolen CPU — moves
// the windows it hits, not the metric.
const liveWindows = 5

// window returns which of the liveWindows slices of a phase of the given
// length holds the instant `offset` into it, clamped to the phase.
func window(offset, length time.Duration) int {
	w := int(float64(offset) / float64(length) * liveWindows)
	return min(max(w, 0), liveWindows-1)
}

// overWindows reduces each non-empty window with f.
func overWindows(byWindow [][]float64, f func([]float64) float64) []float64 {
	var out []float64
	for _, xs := range byWindow {
		if len(xs) > 0 {
			out = append(out, f(xs))
		}
	}
	return out
}

// liveLatencies are live_http's own end-to-end metrics for one
// open-loop phase, windowed by due time: assigned long-polls (p50, p95)
// and the two GET ops (p50), each timed from its due time.
type liveLatencies struct {
	submitP50, submitP95, readP50 float64
	submits, reads                int
}

func openLatencies(recs []opRecord, start time.Time, length time.Duration) liveLatencies {
	submit, read := make([][]float64, liveWindows), make([][]float64, liveWindows)
	var l liveLatencies
	for i := range recs {
		r := &recs[i]
		w := window(r.due.Sub(start), length)
		switch {
		case r.failed:
		case r.kind == opSubmitWait && r.status == "assigned":
			submit[w] = append(submit[w], r.latencyMS())
			l.submits++
		case r.kind == opReadOrder || r.kind == opReadStats:
			read[w] = append(read[w], r.latencyMS())
			l.reads++
		}
	}
	l.submitP50 = fastest(overWindows(submit, median))
	l.submitP95 = fastest(overWindows(submit, func(xs []float64) float64 { return quantile(xs, 0.95) }))
	l.readP50 = fastest(overWindows(read, median))
	return l
}

// liveLoad is the load generator across the phases of one run: the op
// plan's random stream and the global op numbering.
type liveLoad struct {
	rep  *report
	st   *liveStack
	rng  *rand.Rand
	next int // global op index
}

// open runs one open-loop phase on the stack's connections.
func (l *liveLoad) open(rate float64, length time.Duration) ([]opRecord, time.Time) {
	plan := planOps(l.rng, int(rate*length.Seconds()), len(l.st.client.endpoints))
	start := time.Now()
	recs := openLoop(wallClock{}, start, rate, plan, l.next, liveConnections, l.st.client.do)
	l.next += len(plan)
	return recs, start
}

// closed runs one closed-loop phase and returns its wall seconds.
func (l *liveLoad) closed(length time.Duration) ([]opRecord, float64) {
	start := time.Now()
	recs := closedLoop(wallClock{}, start.Add(length), planOps(l.rng, 4096, len(l.st.client.endpoints)), l.next, liveConnections, l.st.client.do)
	l.next += len(recs)
	return recs, time.Since(start).Seconds()
}

// count folds a phase's records and books its ops into the report.
func (l *liveLoad) count(recs []opRecord) opStats {
	s := foldOps(recs)
	l.rep.Attempted += s.ops
	l.rep.Failed += s.failed
	return s
}

// runLiveWorkload runs live_http in this process.
func runLiveWorkload(seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	rep := newReport("live_http", seed, seconds, traced)
	warm := 3 * time.Second
	if seconds < 10 {
		warm = time.Duration(0.3 * seconds * float64(time.Second)) // smoke runs keep the shape, scaled
	}
	// A traced run has seven phases of this length after its idle stretch.
	rungLen := time.Duration(seconds * (1 - liveIdleShare) / 7 * float64(time.Second))
	slots := 0
	if traced {
		for _, r := range ladderRates {
			slots += int(r * rungLen.Seconds())
		}
		slots += int(liveRate*(warm+rungLen).Seconds()) + 1
	}

	var st *liveStack
	var builds []float64
	for begun := time.Now(); anotherSetup(builds, begun); {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		built, err := buildLive(seed, slots)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		st = built
	}
	defer st.close()
	rep.Attempted += liveConnections
	// The warm-up is a fixed stretch of traffic, not work, so unlike a
	// replay's it stays out of setup_s: there it would only dilute it.
	rep.set("setup_s", fastest(builds), len(builds))

	load := &liveLoad{rep: rep, st: st, rng: rand.New(rand.NewSource(seed))}
	warmRecs, _ := load.open(liveRate, warm)
	load.count(warmRecs)
	var err error
	if traced {
		idleLen := time.Duration(seconds * liveIdleShare * float64(time.Second))
		err = liveTracedPhase(load, seed, idleLen, rungLen, outDir)
	} else {
		err = liveMeasuredPhase(load, seconds)
	}
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peakRSSMB(), 0)
	return rep, nil
}

// batchesBetween counts the batches that started in [from, to) since the
// probe's epoch. Like every read of the batch clock it is for after the
// session has ended.
func (p *liveProbe) batchesBetween(from, to time.Duration) int {
	n := 0
	for _, at := range p.at {
		if t := time.Duration(at); t >= from && t < to {
			n++
		}
	}
	return n
}

// idleSample is a stretch without traffic: the free-running engine spins
// empty batches and nothing else in the process allocates, so the
// process's allocation over the stretch, per batch in it, is what one
// empty batch allocates. It repeats to three digits between runs.
type idleSample struct {
	from, to       time.Duration // since the probe's epoch
	bytes, mallocs float64
}

func (st *liveStack) idle(length time.Duration) idleSample {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := idleSample{from: time.Since(st.probe.epoch)}
	time.Sleep(length)
	s.to = time.Since(st.probe.epoch)
	runtime.ReadMemStats(&after)
	s.bytes = float64(after.TotalAlloc - before.TotalAlloc)
	s.mallocs = float64(after.Mallocs - before.Mallocs)
	return s
}

// perBatch is the sample's allocation per empty batch; read it after the
// session has ended.
func (s idleSample) perBatch(p *liveProbe) (bytes, mallocs float64) {
	n := float64(p.batchesBetween(s.from, s.to))
	return ratio(s.bytes, n), ratio(s.mallocs, n)
}

// addedPerOrder is what a phase's orders add to its allocation: the
// phase's total minus what its batches would have allocated empty, per
// order.
func addedPerOrder(total, perEmptyBatch float64, batches, orders int) float64 {
	return ratio(total-perEmptyBatch*float64(batches), float64(orders))
}

// liveIdleShare is the part of a live run's seconds spent idle, sampling
// the empty batch (1 s of a 25 s run: ~6,000 batches).
const liveIdleShare = 0.04

// busyGaps returns the batch gaps in ms between from and to (since the
// probe's epoch): those ending in a batch with riders waiting, by window
// of the interval, and the empty ones. A gap belongs to the batch that
// ends it.
func (p *liveProbe) busyGaps(from, to time.Duration) (busy [][]float64, n int, empty []float64) {
	busy = make([][]float64, liveWindows)
	for i := 1; i < len(p.at); i++ {
		at := time.Duration(p.at[i])
		if at < from || at > to {
			continue
		}
		gap := float64(p.at[i]-p.at[i-1]) / 1e6
		if p.waiting[i] > 0 {
			w := window(at-from, to-from)
			busy[w] = append(busy[w], gap)
			n++
		} else {
			empty = append(empty, gap)
		}
	}
	return busy, n, empty
}

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// liveMeasuredPhase: a short idle stretch, then two thirds of the time
// open loop at 300 ops/s, then one third closed loop, two clients
// submitting back to back.
//
// Latencies, the rate and CPU per order come from the open loop: at a
// fixed arrival rate the rate is the goodput (it falls only when the
// gateway stops keeping up) and CPU per order is what serving that load
// costs, the free-running engine's spinning included. The spinning
// engine takes all the CPU the host grants it, so the process's CPU time
// is its demand times (1 - the hypervisor's steal share): over eight
// runs with steal between 0.01 and 0.39 the plain figure fell from 4.96
// to 3.10 s per 1,000 orders on one line, while CPU / (1 - steal) stayed
// within 4.74-5.12. The run reports the latter: the CPU the process
// would have been given with nothing stolen.
//
// Allocations per order come from the closed loop and are what the
// orders add: the phase's allocation minus what its batches would have
// allocated empty (idleSample), per order. The engine spins ~8 batches
// per order there and an empty batch allocates more than an order does,
// so the plain quotient is nine tenths batches-per-order — the host's
// speed of the minute, which moved it 25 % between runs of one commit and
// would charge a faster batch as more allocation. The empty batch's own
// cost is sim.empty_batch_alloc_kb / sim.empty_batch_allocs.
func liveMeasuredPhase(load *liveLoad, seconds float64) error {
	rep, st := load.rep, load.st
	idleLen := time.Duration(seconds * liveIdleShare * float64(time.Second))
	openLen := time.Duration(seconds * (1 - liveIdleShare) * 2 / 3 * float64(time.Second))
	closedLen := time.Duration(seconds * (1 - liveIdleShare) / 3 * float64(time.Second))

	idle := st.idle(idleLen)
	whole := beginPhase()
	phaseStart := time.Since(st.probe.epoch)
	openRecs, openStart := load.open(liveRate, openLen)
	od := whole.end()
	closed := beginPhase()
	closedFrom := time.Since(st.probe.epoch)
	closedRecs, closedWall := load.closed(closedLen)
	closedTo := time.Since(st.probe.epoch)
	cd := closed.end()
	d := whole.end()
	phaseEnd := time.Since(st.probe.epoch)

	m, err := st.drain()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := checkSummary(m.Summary()); err != nil {
		rep.failf("session: %v", err)
	}
	st.finalChecks(rep)

	o, c := load.count(openRecs), load.count(closedRecs)
	longPolled := float64(o.longPolled + c.longPolled)
	busy, busyN, empty := st.probe.busyGaps(phaseStart, phaseEnd)
	lat := openLatencies(openRecs, openStart, openLen)
	emptyBytes, emptyMallocs := idle.perBatch(st.probe)
	closedBatches := st.probe.batchesBetween(closedFrom, closedTo)

	rep.set("orders_per_s", float64(o.terminal)/od.wall, o.terminal)
	rep.set("batch_p50_ms", fastest(overWindows(busy, median)), busyN)
	rep.set("batch_p99_ms", fastest(overWindows(busy, p99)), busyN)
	rep.set("cpu_s_per_korder", od.cpu/(1-od.stealShare)/(float64(o.terminal)/1000), o.terminal)
	rep.set("allocs_per_order", addedPerOrder(cd.mallocs, emptyMallocs, closedBatches, c.terminal), c.terminal)
	rep.set("alloc_kb_per_order", addedPerOrder(cd.bytes, emptyBytes, closedBatches, c.terminal)/1024, c.terminal)
	rep.set("served_share", float64(o.assigned+c.assigned)/longPolled, 0)
	rep.set("revenue_per_order", (o.revenue+c.revenue)/longPolled, 0)
	rep.set("submit_p50_ms", lat.submitP50, lat.submits)
	rep.set("submit_p95_ms", lat.submitP95, lat.submits)
	rep.set("read_p50_ms", lat.readP50, lat.reads)
	rep.set("server.closed_loop_orders_per_s", float64(c.terminal)/closedWall, c.terminal)
	rep.set("sim.empty_batch_p50_ms", median(empty), len(empty))
	rep.set("sim.empty_batch_alloc_kb", emptyBytes/1024, 0)
	rep.set("sim.empty_batch_allocs", emptyMallocs, 0)
	rep.set("sim.expired_share", 1-float64(o.assigned+c.assigned)/longPolled, 0)
	rep.set("gen.offered_per_s", offeredPerS(openRecs, openStart), o.ops)
	rep.set("gen.lateness_p99_ms", quantile(o.lateMS, 0.99), len(o.lateMS))
	rep.set("go.gc_cycles", d.gcCycles, 0)
	rep.set("go.gc_pause_total_ms", d.gcPauseMS, 0)
	rep.set("machine.steal_share", d.stealShare, 0)
	return nil
}

// rungOK is the traced ladder's pass criterion for one rate.
func rungOK(s opStats, p95 float64) bool {
	if len(s.submitMS) == 0 || p95 > 20 || float64(s.failed) > 0.01*float64(s.ops) || quantile(s.lateMS, 0.99) > 10 {
		return false
	}
	// The generator's backlog must not be growing: the last fifth of the
	// rung may not start later than the first fifth by more than 5 ms.
	fifth := max(len(s.lateMS)/5, 1)
	return median(s.lateMS[len(s.lateMS)-fifth:]) <= median(s.lateMS[:fifth])+5
}

// liveTracedPhase, an idle stretch (the empty batch's allocation) and
// then seven phases of equal length: an untraced rung at the
// measured rate (the base of the overhead ratio and of the live
// end-to-end latencies), the four traced rungs of the rate ladder, an
// untraced closed loop, then — the gateway drained — an in-process closed
// loop on ServeHandle.Submit.
func liveTracedPhase(load *liveLoad, seed int64, idleLen, rungLen time.Duration, outDir string) error {
	rep, st := load.rep, load.st
	idle := st.idle(idleLen)
	meter := beginPhase()
	baseFrom := time.Since(st.probe.epoch)
	baseRecs, baseStart := load.open(liveRate, rungLen)
	baseTo := time.Since(st.probe.epoch)
	base := load.count(baseRecs)
	baseLat := openLatencies(baseRecs, baseStart, rungLen)

	st.probe.tracing.Store(true)
	var tracedRecs []opRecord
	var at300 liveLatencies
	maxOK, orders, rejected := 0.0, base.terminal, base.rejected
	for _, rate := range ladderRates {
		recs, start := load.open(rate, rungLen)
		s := load.count(recs)
		p95 := quantile(s.submitMS, 0.95)
		rep.set(fmt.Sprintf("server.submit_p95_ms.r%d", int(rate)), p95, len(s.submitMS))
		if rungOK(s, p95) {
			maxOK = max(maxOK, rate)
		}
		if rate == liveRate {
			at300 = openLatencies(recs, start, rungLen)
		}
		orders += s.terminal
		rejected += s.rejected
		tracedRecs = append(tracedRecs, recs...)
	}
	st.probe.tracing.Store(false)
	closedRecs, closedWall := load.closed(rungLen)
	closed := load.count(closedRecs)
	d := meter.end()
	// Heap growth with the harness's own buffers preallocated: what is
	// left is the served system retaining every order it ever saw.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapGrowthKB := (float64(mem.HeapAlloc) - float64(meter.mem.HeapAlloc)) / 1024
	orders, rejected = orders+closed.terminal, rejected+closed.rejected

	m, err := st.drain()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := checkSummary(m.Summary()); err != nil {
		rep.failf("session: %v", err)
	}
	st.finalChecks(rep)
	st.close() // the handler slots and stamps are settled once the server is down

	// One trace per traced op: the op, the handler pass under it, and —
	// for an assigned long-poll — where the handler's time went.
	tr := newTracer(len(tracedRecs) * 5)
	epoch := st.probe.epoch
	var handleMS, queueMS, engineMS, deliverMS []float64
	opNS, handleNS := 0.0, 0.0
	for i := range tracedRecs {
		r := &tracedRecs[i]
		trace := int64(r.index)
		root := tr.add(spanOp, 0, trace, int64(r.due.Sub(epoch)), int64(r.end.Sub(epoch)))
		h := st.handler.slots[r.index]
		if h.in == 0 || r.failed {
			continue
		}
		hid := tr.add(spanHandle, root, trace, h.in, h.out)
		handleMS = append(handleMS, float64(h.out-h.in)/1e6)
		opNS += float64(r.end.Sub(r.start))
		handleNS += float64(h.out - h.in)
		if r.kind != opSubmitWait || r.status != "assigned" || int(r.id) >= len(st.probe.stamps) {
			continue
		}
		s := st.probe.stamps[r.id]
		if s.assigned == 0 {
			continue
		}
		tr.add(spanQueueWait, hid, trace, h.in, s.batchStart)
		tr.add(spanEngine, hid, trace, s.batchStart, s.assigned)
		tr.add(spanDeliver, hid, trace, s.assigned, h.out)
		queueMS = append(queueMS, float64(s.batchStart-h.in)/1e6)
		engineMS = append(engineMS, float64(s.assigned-s.batchStart)/1e6)
		deliverMS = append(deliverMS, float64(h.out-s.assigned)/1e6)
	}

	inproc, err := inProcessLoop(seed, st.client.endpoints, rungLen)
	if err != nil {
		return err
	}
	rep.Attempted += len(inproc)

	busy, busyN, empty := st.probe.busyGaps(baseFrom, baseTo)
	longPolled := 0
	assigned := 0
	for i := range tracedRecs {
		if r := &tracedRecs[i]; !r.failed && r.kind == opSubmitWait {
			longPolled++
			if r.status == "assigned" {
				assigned++
			}
		}
	}
	submitP50 := baseLat.submitP50
	emptyBytes, emptyMallocs := idle.perBatch(st.probe)
	rep.set("submit_p50_ms", submitP50, baseLat.submits)
	rep.set("submit_p95_ms", baseLat.submitP95, baseLat.submits)
	rep.set("read_p50_ms", baseLat.readP50, baseLat.reads)
	rep.set("batch_p99_ms", fastest(overWindows(busy, p99)), busyN)
	rep.set("workload.orders", float64(orders), 0)
	rep.set("sim.batches", float64(m.Batches), 0)
	rep.set("sim.empty_batch_p50_ms", median(empty), len(empty))
	rep.set("sim.empty_batch_alloc_kb", emptyBytes/1024, 0)
	rep.set("sim.empty_batch_allocs", emptyMallocs, 0)
	rep.set("sim.expired_share", 1-ratio(float64(assigned), float64(longPolled)), longPolled)
	rep.set("service.submit_p50_ms", median(inproc), len(inproc))
	rep.set("service.submit_p99_ms", quantile(inproc, 0.99), len(inproc))
	rep.set("service.queue_wait_p50_ms", median(queueMS), len(queueMS))
	rep.set("service.engine_p50_ms", median(engineMS), len(engineMS))
	rep.set("service.deliver_p50_ms", median(deliverMS), len(deliverMS))
	rep.set("server.handle_p50_ms", median(handleMS), len(handleMS))
	rep.set("server.http_overhead_p50_ms", submitP50-median(inproc), 0)
	rep.set("server.read_p99_ms", quantile(base.readMS, 0.99), len(base.readMS))
	rep.set("server.submit_p99_ms", quantile(base.submitMS, 0.99), len(base.submitMS))
	rep.set("server.submit_p999_ms", quantile(base.submitMS, 0.999), len(base.submitMS))
	rep.set("server.rejected_429", float64(rejected), 0)
	rep.set("server.heap_growth_kb_per_order", heapGrowthKB/float64(orders), orders)
	rep.set("server.max_ok_rate_per_s", maxOK, 0)
	rep.set("server.closed_loop_orders_per_s", float64(closed.terminal)/closedWall, closed.terminal)
	rep.set("gen.offered_per_s", offeredPerS(baseRecs, baseStart), base.ops)
	rep.set("gen.lateness_p99_ms", quantile(base.lateMS, 0.99), len(base.lateMS))
	rep.set("go.gc_cycles", d.gcCycles, 0)
	rep.set("go.gc_pause_total_ms", d.gcPauseMS, 0)
	rep.set("machine.steal_share", d.stealShare, 0)
	rep.set("queueing.eit_ns_per_call", probeEIT(), 0)
	rep.set("trace.overhead_ratio", ratio(at300.submitP50, submitP50), at300.submits)
	// The share of the client-side op time (send to reply) that the
	// server-side spans account for; the rest is the HTTP stack itself.
	rep.set("trace.coverage_ratio", ratio(handleNS, opNS), len(handleMS))
	return writeSpans(filepath.Join(outDir, "trace_live_http.jsonl"), tr.spans)
}

// inProcessLoop measures the service layer without HTTP: two goroutines
// call ServeHandle.Submit and wait for the Outcome, back to back, on a
// fresh session of the same service.
func inProcessLoop(seed int64, endpoints []trace.Order, length time.Duration) ([]float64, error) {
	svc, err := newLiveService(liveCity(), seed, sim.ObserverFuncs{})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := svc.Start(ctx, "IRG", nil)
	if err != nil {
		return nil, err
	}
	until := time.Now().Add(length)
	perWorker := make([][]float64, liveConnections)
	errs := make([]error, liveConnections)
	var wg sync.WaitGroup
	for w := 0; w < liveConnections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; time.Now().Before(until); i += liveConnections {
				o := endpoints[i%len(endpoints)]
				t0 := time.Now()
				now := h.Clock()
				_, ch, err := h.Submit(mrvd.Order{PostTime: now, Deadline: now + livePatience, Pickup: o.Pickup, Dropoff: o.Dropoff})
				if err != nil {
					errs[w] = err
					return
				}
				<-ch
				perWorker[w] = append(perWorker[w], float64(time.Since(t0))/1e6)
			}
		}()
	}
	wg.Wait()
	h.Close()
	if _, err := h.Result(); err != nil {
		return nil, fmt.Errorf("in-process session: %w", err)
	}
	var ms []float64
	for w, s := range perWorker {
		if errs[w] != nil {
			return nil, fmt.Errorf("in-process submit: %w", errs[w])
		}
		ms = append(ms, s...)
	}
	return ms, nil
}
