package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mrvd"
	"mrvd/internal/obs"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

// Config parameterizes a gateway over one serve session.
type Config struct {
	// Algorithm names the dispatcher (default "LS").
	Algorithm string
	// Starts positions the fleet; nil samples from the instance.
	Starts []mrvd.Point
	// Fleet pre-populates /v1/drivers with this many driver views; 0
	// learns drivers from events only.
	Fleet int
	// MaxPending bounds in-flight orders (submitted, not yet terminal).
	// A submit beyond the bound is rejected with 429 (default 1024).
	MaxPending int
	// DefaultPatience is the pickup patience, in engine seconds, stamped
	// on orders that do not specify one (default 300).
	DefaultPatience float64
	// MaxWait caps a ?wait=true long-poll (default 60s). A poll that
	// times out returns the order's current (pending) view with 202.
	MaxWait time.Duration
	// Metrics, when set, mounts GET /metrics serving the registry in
	// Prometheus text format and records the gateway's submit→terminal
	// wall-clock latency histogram into it. Pass the same registry to
	// mrvd.WithObservability to expose the engine's instruments through
	// the same endpoint. Nil (the default) mounts nothing.
	Metrics *obs.Registry
	// Pprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: profiling endpoints expose internals and cost CPU while
	// scraped, so they are opt-in like Metrics.
	Pprof bool
	// Collect, with Metrics set, runs a windowed time-series collector
	// over the registry: GET /v1/timeseries serves its ring-buffer dump,
	// GET /healthz gains rule states (and a degraded/unhealthy status
	// code), and each collected window is pushed to /v1/events
	// subscribers as a "window" SSE event. The collector is one
	// goroutine reading atomics on a ticker — dispatch hot paths never
	// see it.
	Collect bool
	// CollectInterval is the collection period (default 1s);
	// CollectWindows the ring capacity (default 120).
	CollectInterval time.Duration
	CollectWindows  int
	// Rules is the SLO rule set the collector evaluates per window
	// (default obs.DefaultDispatchRules). Set to a non-nil empty slice
	// to collect time series with no rules.
	Rules []obs.Rule
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = "LS"
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.DefaultPatience <= 0 {
		c.DefaultPatience = 300
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 60 * time.Second
	}
	return c
}

// Server is an HTTP/JSON gateway over a live dispatch session: it owns
// the session's ServeHandle — whose order ledger (store) backs every
// read endpoint — and an SSE hub. Build with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg    Config
	svc    *mrvd.Service
	handle *mrvd.ServeHandle
	store  *sim.StateStore // handle.Store()
	hub    *hub
	mux    *http.ServeMux
	began  time.Time
	// collector is the windowed time-series collector, nil unless
	// Config.Collect (with Metrics) is set.
	collector *obs.Collector
}

// New starts a serve session on svc and wraps it in a gateway. The
// session — and therefore the gateway — ends when ctx is canceled, the
// service horizon is reached, or Drain is called; in-flight waiters
// resolve (canceled) and SSE streams close. The caller should serve the
// returned *Server over HTTP and may Result() it for final metrics.
func New(ctx context.Context, svc *mrvd.Service, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		svc:   svc,
		hub:   newHub(),
		began: time.Now(),
	}
	handle, err := svc.Start(ctx, cfg.Algorithm, cfg.Starts, s.hub.observer())
	if err != nil {
		return nil, err
	}
	s.handle, s.store = handle, handle.Store()
	s.store.SeedFleet(cfg.Fleet)
	s.store.SetInFlightLimit(cfg.MaxPending)
	if cfg.Metrics != nil {
		s.store.TimeOrders(cfg.Metrics.Histogram("mrvd_submit_terminal_seconds",
			"Wall-clock latency from gateway submit to the order's terminal outcome.",
			obs.LatencyBuckets))
	}
	if cfg.Collect && cfg.Metrics != nil {
		rules := cfg.Rules
		if rules == nil {
			rules = obs.DefaultDispatchRules()
		}
		s.collector = obs.NewCollector(obs.CollectorConfig{
			Registry: cfg.Metrics,
			Interval: cfg.CollectInterval,
			Windows:  cfg.CollectWindows,
			Rules:    rules,
			OnWindow: s.publishWindow,
		})
		s.collector.Start()
	}
	go func() {
		<-handle.Done()
		if s.collector != nil {
			s.collector.Stop()
		}
		s.hub.closeAll()
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/orders", s.handleSubmit)
	mux.HandleFunc("GET /v1/orders", s.handleOrders)
	mux.HandleFunc("GET /v1/orders/{id}", s.handleOrder)
	mux.HandleFunc("DELETE /v1/orders/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/drivers", s.handleDrivers)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Metrics != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.collector != nil {
		mux.HandleFunc("GET /v1/timeseries", s.handleTimeseries)
	}
	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handle exposes the underlying serve session.
func (s *Server) Handle() *mrvd.ServeHandle { return s.handle }

// Store exposes the live state store.
func (s *Server) Store() *sim.StateStore { return s.store }

// Collector exposes the time-series collector (nil unless
// Config.Collect is set) — tests drive its Tick deterministically.
func (s *Server) Collector() *obs.Collector { return s.collector }

// ended reports whether the serve session has finished.
func (s *Server) ended() bool {
	select {
	case <-s.handle.Done():
		return true
	default:
		return false
	}
}

// Drain closes the order stream: already-accepted orders still
// dispatch, new submissions fail, and the session exits once drained.
func (s *Server) Drain() { s.handle.Close() }

// Result blocks until the session ends and returns its final metrics.
func (s *Server) Result() (*mrvd.Metrics, error) { return s.handle.Result() }

// --- wire types ---

type orderRequest struct {
	Pickup  pointJSON `json:"pickup"`
	Dropoff pointJSON `json:"dropoff"`
	// PatienceSeconds is how long the rider waits for pickup, in engine
	// seconds (default Config.DefaultPatience).
	PatienceSeconds float64 `json:"patience_seconds,omitempty"`
}

type orderResponse struct {
	ID       int64       `json:"id"`
	Status   string      `json:"status"`
	PostTime float64     `json:"post_time"`
	Deadline float64     `json:"deadline"`
	Pickup   pointJSON   `json:"pickup"`
	Dropoff  pointJSON   `json:"dropoff"`
	Driver   *int64      `json:"driver,omitempty"`
	Assigned *assigned   `json:"assignment,omitempty"`
	Expired  *expiredAt  `json:"expiry,omitempty"`
	Canceled *canceledAt `json:"cancellation,omitempty"`
	// Declines counts driver declines this order survived.
	Declines int `json:"declines,omitempty"`
	// WaitMS is the wall-clock milliseconds a ?wait submit spent from
	// acceptance to the terminal outcome (submit responses only).
	WaitMS float64 `json:"wait_ms,omitempty"`
}

type assigned struct {
	At         float64 `json:"at"`
	PickedAt   float64 `json:"picked_at"`
	FreeAt     float64 `json:"free_at"`
	PickupCost float64 `json:"pickup_cost"`
	Revenue    float64 `json:"revenue"`
	// Shared marks a pooled insertion into another trip's route plan;
	// DetourSeconds is the rider's planned detour beyond the direct
	// trip. Both absent with pooling off.
	Shared        bool    `json:"shared,omitempty"`
	DetourSeconds float64 `json:"detour_seconds,omitempty"`
}

type expiredAt struct {
	At float64 `json:"at"`
}

type canceledAt struct {
	At float64 `json:"at"`
}

type driverResponse struct {
	ID          int64     `json:"id"`
	Served      int       `json:"served"`
	Declines    int       `json:"declines"`
	Repositions int       `json:"repositions"`
	Busy        bool      `json:"busy"`
	Pos         pointJSON `json:"pos"`
	FreeAt      float64   `json:"free_at"`
	// Onboard is the pooled riders currently in the car;
	// RemainingStops the stops left on its route plan. Both zero with
	// pooling off.
	Onboard        int `json:"onboard"`
	RemainingStops int `json:"remaining_stops"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func orderViewResponse(v sim.OrderView) orderResponse {
	resp := orderResponse{
		ID:       int64(v.ID),
		Status:   string(v.State),
		PostTime: v.PostTime,
		Deadline: v.Deadline,
		Pickup:   toPoint(v.Pickup),
		Dropoff:  toPoint(v.Dropoff),
	}
	switch v.State {
	case sim.OrderAssigned:
		d := int64(v.Driver)
		resp.Driver = &d
		resp.Assigned = &assigned{
			At: v.AssignedAt, PickedAt: v.PickedAt, FreeAt: v.FreeAt,
			PickupCost: v.PickupCost, Revenue: v.Revenue,
			Shared: v.Shared, DetourSeconds: v.DetourSeconds,
		}
	case sim.OrderExpired:
		resp.Expired = &expiredAt{At: v.ExpiredAt}
	case sim.OrderCanceled:
		resp.Canceled = &canceledAt{At: v.CanceledAt}
	}
	if v.Declines > 0 {
		resp.Declines = v.Declines
	}
	return resp
}

// --- handlers ---

// maxOrderBytes caps a POST /v1/orders body. An order is four
// coordinates and a patience — well under 1 KB even at full float64
// precision — so anything larger is not an order, and is refused before
// the decoder buffers it.
const maxOrderBytes = 4 << 10

// handleSubmit admits one order: coordinate validation, engine-clock
// stamping, booking in the session ledger (which enforces the pending
// bound), and — with ?wait=true — a long-poll for the terminal outcome.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req orderRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxOrderBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "order body exceeds %d bytes", maxOrderBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "decode order: %v", err)
		return
	}
	patience := req.PatienceSeconds
	if patience <= 0 {
		patience = s.cfg.DefaultPatience
	}
	now := s.handle.Clock()
	o := trace.Order{
		PostTime: now,
		Deadline: now + patience,
		Pickup:   mrvd.Point{Lng: req.Pickup.Lng, Lat: req.Pickup.Lat},
		Dropoff:  mrvd.Point{Lng: req.Dropoff.Lng, Lat: req.Dropoff.Lat},
	}
	// The engine clamps an off-grid point into an edge region, where the
	// order would sit unreachable until it expires; a missing field
	// decodes to (0,0) and lands here too.
	if box := s.handle.Bounds(); !box.Contains(o.Pickup) || !box.Contains(o.Dropoff) {
		writeError(w, http.StatusBadRequest, "pickup %v or dropoff %v outside the service area (lng %v..%v, lat %v..%v)",
			o.Pickup, o.Dropoff, box.MinLng, box.MaxLng, box.MinLat, box.MaxLat)
		return
	}
	accepted := time.Now()
	id, outcome, err := s.handle.Submit(o)
	switch {
	case errors.Is(err, mrvd.ErrQueueFull):
		// Backpressure: a bounded pending queue is what separates a
		// serving system from an unbounded buffer. The limit is checked
		// atomically with registration inside Submit, so it holds under
		// concurrent requests. 429 tells well-behaved clients to retry.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "pending queue full (%d in flight)", s.cfg.MaxPending)
		return
	case errors.Is(err, mrvd.ErrServeFinished):
		// The service going away is not the client's fault.
		writeError(w, http.StatusServiceUnavailable, "serve session ended")
		return
	case err != nil:
		// Remaining failures are the order's own validation.
		writeError(w, http.StatusBadRequest, "submit: %v", err)
		return
	}

	if r.URL.Query().Get("wait") == "true" {
		timer := time.NewTimer(s.cfg.MaxWait)
		defer timer.Stop()
		select {
		case out := <-outcome:
			resp := orderViewResponse(out)
			resp.WaitMS = time.Since(accepted).Seconds() * 1000
			writeJSON(w, http.StatusOK, resp)
			return
		case <-timer.C:
			// Wait bound hit; the client can poll GET /v1/orders/{id}.
		case <-r.Context().Done():
			return // client went away; the order stays in the system
		}
	}
	v, _ := s.store.Order(id)
	writeJSON(w, http.StatusAccepted, orderViewResponse(v))
}

func (s *Server) handleOrder(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad order id %q", r.PathValue("id"))
		return
	}
	v, ok := s.store.Order(trace.OrderID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "order %d unknown", id)
		return
	}
	writeJSON(w, http.StatusOK, orderViewResponse(v))
}

// handleCancel applies a rider-initiated cancellation: DELETE
// /v1/orders/{id}. The cancel is asynchronous — the engine adjudicates
// it at its next batch, so a driver assigned in the same instant wins
// the race and the order still completes. 202 hands back the order's
// current view; a long-poll or GET observes the terminal state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad order id %q", r.PathValue("id"))
		return
	}
	// Whether the order is booked is read before the cancel: a submit
	// registering the id between a failed Cancel and a later lookup
	// would turn "not booked yet" (404, retry) into "no longer in
	// flight" (409). The ledger never forgets an order, so one booked
	// here is still booked after the Cancel.
	_, booked := s.store.Order(trace.OrderID(id))
	cancelErr := s.handle.Cancel(trace.OrderID(id))
	if errors.Is(cancelErr, mrvd.ErrServeFinished) {
		writeError(w, http.StatusServiceUnavailable, "serve session ended")
		return
	}
	v, _ := s.store.Order(trace.OrderID(id))
	switch {
	case cancelErr == nil:
		writeJSON(w, http.StatusAccepted, orderViewResponse(v))
	case !booked:
		writeError(w, http.StatusNotFound, "order %d unknown", id)
	default:
		// Booked but no longer in flight: the cancel is refused with the
		// order's terminal view.
		writeJSON(w, http.StatusConflict, orderViewResponse(v))
	}
}

func (s *Server) handleOrders(w http.ResponseWriter, r *http.Request) {
	views := s.store.Orders()
	out := make([]orderResponse, len(views))
	for i, v := range views {
		out[i] = orderViewResponse(v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDrivers(w http.ResponseWriter, r *http.Request) {
	views := s.store.Drivers()
	out := make([]driverResponse, len(views))
	for i, v := range views {
		out[i] = driverResponse{
			ID: int64(v.ID), Served: v.Served, Declines: v.Declines, Repositions: v.Repositions,
			Busy: v.Busy, Pos: toPoint(v.Pos), FreeAt: v.FreeAt,
			Onboard: v.Onboard, RemainingStops: v.RemainingStops,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleEvents streams dispatch events as Server-Sent Events until the
// client disconnects or the session ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	// The hub closes just after the session ends; checking the session
	// too keeps a subscription arriving in between from getting a 200
	// and an immediately closed stream.
	var sub chan []byte
	if !s.ended() {
		sub = s.hub.subscribe()
	}
	if sub == nil {
		writeError(w, http.StatusServiceUnavailable, "serve session ended")
		return
	}
	defer s.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case payload, ok := <-sub:
			if !ok {
				return // session over
			}
			fmt.Fprintf(w, "data: %s\n\n", payload)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Algorithm     string         `json:"algorithm"`
	Engine        sim.StoreStats `json:"engine"`
	// InFlight counts submitted orders without a terminal outcome;
	// PendingRelease of those, the ones the engine has not admitted yet.
	InFlight       int  `json:"in_flight"`
	PendingRelease int  `json:"pending_release"`
	MaxPending     int  `json:"max_pending"`
	Done           bool `json:"done"`
	// Coster is the travel-cost cache counters for backends that expose
	// them (the road-network coster does); null otherwise.
	Coster *roadnet.CosterStats `json:"coster,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeSeconds:  time.Since(s.began).Seconds(),
		Algorithm:      s.cfg.Algorithm,
		Engine:         s.store.Stats(),
		InFlight:       s.handle.InFlight(),
		PendingRelease: s.handle.Pending(),
		MaxPending:     s.cfg.MaxPending,
		Done:           s.ended(),
	}
	if c, ok := s.svc.Options().Coster.(interface{ Stats() roadnet.CosterStats }); ok {
		st := c.Stats()
		resp.Coster = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves Config.Metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Metrics.WriteText(w)
}

// handleTimeseries dumps the collector's retained windows — every
// derived series aligned on one timestamp axis, plus the health
// snapshot. This is mrvd-top's feed.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.collector.Dump())
}

// handleHealth reports liveness and, when a collector runs, the SLO
// rule states. The status code follows the overall state — ok 200,
// degraded 429, unhealthy (or session over) 503 — so a plain HTTP
// check sees trouble without parsing the body.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.ended() {
		writeError(w, http.StatusServiceUnavailable, "serve session ended")
		return
	}
	if s.collector == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	h := s.collector.Health()
	code := http.StatusOK
	switch h.Status {
	case obs.StateDegraded:
		code = http.StatusTooManyRequests
	case obs.StateUnhealthy:
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// publishWindow pushes one collected window to SSE subscribers as a
// "window" event alongside the dispatch event stream.
func (s *Server) publishWindow(snap obs.WindowSnapshot) {
	if !s.hub.active() {
		return
	}
	payload, err := json.Marshal(struct {
		Type string `json:"type"`
		obs.WindowSnapshot
	}{Type: "window", WindowSnapshot: snap})
	if err != nil {
		return
	}
	s.hub.publish(payload)
}
