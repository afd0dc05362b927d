package sim

import (
	"math/rand"

	"mrvd/internal/workload"
)

// CancelModel decides when a waiting rider abandons its order. The
// engine draws one uniform per admitted order and hands it to the model,
// so the model itself stays deterministic and side-effect free — the
// scenario RNG is the only source of randomness.
// workload.Patience is the default implementation.
type CancelModel interface {
	// CancelTime maps a uniform draw u in [0,1) to the rider's
	// abandonment time for an order posted at post with the given
	// deadline; ok=false means the rider waits until the deadline.
	CancelTime(u, post, deadline float64) (float64, bool)
}

// ScenarioConfig gates the engine's disruption layer: rider
// cancellations, driver declines and stochastic travel times. The zero
// value disables all three and leaves the engine byte-identical to a
// scenario-free run — same Summary, same idle ledger, same event
// stream. All stochastic draws come from one RNG seeded with Seed, so
// scenario runs are exactly reproducible, and a 1-shard runtime
// reproduces the bare engine event for event.
type ScenarioConfig struct {
	// CancelRate is the probability a waiting rider abandons its order
	// before the deadline (rider-initiated cancellation). Cancellation
	// times are drawn at admission from the order's deadline slack via
	// workload.Patience's constant-hazard model. 0 disables stochastic
	// cancellations; explicit cancels (ServeHandle.Cancel, DELETE
	// /v1/orders/{id}) are caller-initiated and always honored.
	CancelRate float64
	// CancelModel overrides the hazard model used with CancelRate; nil
	// uses workload.Patience{AbandonRate: CancelRate}.
	CancelModel CancelModel
	// DeclineProb is the probability a committed assignment is declined
	// by the driver (decline / no-show). The rider returns to the
	// waiting pool with its deadline unchanged and is re-dispatched in a
	// later batch; the driver takes DeclineCooldown seconds of cooldown
	// before rejoining the available pool. 0 disables declines.
	DeclineProb float64
	// DeclineCooldown is how long a declining driver is unassignable, in
	// engine seconds (default 60 when DeclineProb > 0).
	DeclineCooldown float64
	// TravelNoise perturbs realized pickup and trip durations around the
	// coster's estimate with multiplicative Gaussian noise of this
	// relative standard deviation (0.2 = 20%). Dispatch still plans on
	// estimates — candidate feasibility, deadline checks and assignment
	// scoring are untouched — but the committed trip's PickedAt, freeAt,
	// the idle ledger and revenue all reflect the realized durations,
	// and every noisy assignment appends an estimate-vs-realized
	// TravelRecord to the metrics. A realized pickup may therefore land
	// past the rider's deadline: the rider was already committed, which
	// is exactly the late-pickup risk a real platform carries. 0
	// disables noise.
	TravelNoise float64
	// Seed seeds the scenario RNG (hazard draws, decline draws, travel
	// noise). Runs with equal seeds and equal order streams disrupt
	// identically.
	Seed int64
}

// Enabled reports whether any disruption is configured. A config that
// only sets Seed is still disabled — the engine creates no RNG and
// stays byte-identical to a scenario-free run.
func (c ScenarioConfig) Enabled() bool {
	return c.CancelRate > 0 || c.CancelModel != nil || c.DeclineProb > 0 || c.TravelNoise > 0
}

// scenarioState is the engine's per-run disruption machinery, nil when
// the config is zero-valued so the scenario-free hot path pays nothing.
type scenarioState struct {
	cfg    ScenarioConfig
	rng    *rand.Rand
	cancel CancelModel
}

func newScenarioState(cfg ScenarioConfig) *scenarioState {
	s := &scenarioState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	switch {
	case cfg.CancelModel != nil:
		s.cancel = cfg.CancelModel
	case cfg.CancelRate > 0:
		s.cancel = workload.Patience{AbandonRate: cfg.CancelRate}
	}
	return s
}

// cooldown returns the decline cooldown with its default applied.
func (s *scenarioState) cooldown() float64 {
	if s.cfg.DeclineCooldown > 0 {
		return s.cfg.DeclineCooldown
	}
	return 60
}

// declines draws whether the next committed assignment is declined.
func (s *scenarioState) declines() bool {
	return s.cfg.DeclineProb > 0 && s.rng.Float64() < s.cfg.DeclineProb
}

// perturb maps an estimated duration to its realized value under the
// configured travel noise. The multiplicative factor is clamped at 0.05
// so realized durations stay positive.
func (s *scenarioState) perturb(estimate float64) float64 {
	f := 1 + s.cfg.TravelNoise*s.rng.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	return estimate * f
}
