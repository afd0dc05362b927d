package queueing

import (
	"fmt"
	"math"
)

// Config parameterizes the region queueing model.
type Config struct {
	// Beta is the reneging exponent of pi(n) = e^(Beta*n)/mu. Larger Beta
	// means riders give up faster as the queue grows. The paper fits it
	// from historical reneging records; our workloads configure it
	// explicitly. Beta = 0 still reneges at rate 1/mu per state.
	Beta float64
}

// The positive-side (waiting riders) series is truncated at maxStates
// terms, or once a term falls below seriesTol times the accumulated
// sum. The terms decay geometrically, so the truncation error is
// negligible well before maxStates.
const (
	maxStates = 4096
	seriesTol = 1e-12
)

// Model evaluates the double-sided queue's steady state. The zero value
// is not usable; construct with New.
type Model struct {
	cfg Config
}

// New returns a model with the given configuration.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// NewDefault returns a model with the reneging exponent used throughout
// the experiments (beta = 0.05, a mild impatience ramp).
func NewDefault() *Model { return New(Config{Beta: 0.05}) }

// rateEqualTol is the relative tolerance under which lambda and mu are
// treated as the balanced regime of Eqs. 14-16.
const rateEqualTol = 1e-9

// Renege returns pi(n), the reneging rate of waiting riders when the
// region holds n of them (n > 0), given driver arrival rate mu (Eq. 4's
// suggested form e^(beta*n)/mu). mu is floored at a tiny epsilon so a
// region that currently attracts no drivers still has finite reneging.
func (m *Model) Renege(n int, mu float64) float64 {
	if n <= 0 {
		return 0
	}
	const epsMu = 1e-9
	if mu < epsMu {
		mu = epsMu
	}
	return math.Exp(m.cfg.Beta*float64(n)) / mu
}

// positiveSeries returns S+ = sum over n>=1 of prod_{i=1..n}
// lambda/(mu + pi(i)), the waiting-rider side of the normalization
// constant (Eq. 6, n > 0). The product terms decrease monotonically once
// mu + pi(i) exceeds lambda, which the exponential reneging guarantees.
func (m *Model) positiveSeries(lambda, mu float64) float64 {
	sum := 0.0
	term := 1.0
	for n := 1; n <= maxStates; n++ {
		term *= lambda / (mu + m.Renege(n, mu))
		sum += term
		if term < seriesTol*(1+sum) {
			break
		}
	}
	return sum
}

// negativeSeriesScaled computes the congested-driver side of the
// normalization and the idle-time numerator in one pass:
//
//	sumGeo = sum_{i=1..K} theta^i            (Eqs. 11/14, theta = mu/lambda)
//	sumET  = sum_{i=0..K} (i+1) theta^i      (numerators of Eqs. 13/16)
//
// To survive theta > 1 with large K (theta^K overflows float64 near
// K*ln(theta) ~ 709), both accumulators are rescaled in lockstep whenever
// they grow past 1e250 and the common scale is returned as logScale; the
// caller forms ratios in which the scale cancels or provably dominates.
func negativeSeriesScaled(theta float64, K int) (sumGeo, sumET, logScale float64) {
	const rescaleAt = 1e250
	const rescaleBy = 1e-200
	term := 1.0 // theta^i
	sumET = 1.0 // i = 0 contributes (0+1)*theta^0
	for i := 1; i <= K; i++ {
		term *= theta
		sumGeo += term
		sumET += float64(i+1) * term
		if sumET > rescaleAt {
			term *= rescaleBy
			sumGeo *= rescaleBy
			sumET *= rescaleBy
			logScale += -math.Log(rescaleBy)
		}
	}
	return sumGeo, sumET, logScale
}

// P0 returns the steady-state probability of the empty state (Eqs. 9, 12,
// 15). K bounds how many drivers can congest (the number of available
// drivers in the scheduling window); it only matters when lambda <= mu.
// Degenerate inputs return 0.
func (m *Model) P0(lambda, mu float64, K int) float64 {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsNaN(mu) {
		return 0
	}
	if mu < 0 {
		mu = 0
	}
	if K < 0 {
		K = 0
	}
	sPos := m.positiveSeries(lambda, mu)
	switch {
	case lambda > mu && !m.balanced(lambda, mu):
		// Eq. 9: infinite geometric driver side, ratio mu/lambda < 1.
		return 1 / (lambda/(lambda-mu) + sPos)
	case m.balanced(lambda, mu):
		// Eq. 15.
		return 1 / (float64(K) + 1 + sPos)
	default:
		// Eq. 12, theta = mu/lambda > 1, truncated at K drivers.
		theta := mu / lambda
		sumGeo, _, logScale := negativeSeriesScaled(theta, K)
		if logScale > 0 {
			// The geometric sum overwhelmed float64: p0 is effectively
			// e^{-logScale}/sumGeo, far below any revenue-relevant scale.
			return math.Exp(-logScale) / (sumGeo + 1)
		}
		return 1 / (1 + sumGeo + sPos)
	}
}

// balanced reports whether lambda and mu fall in the equal-rate regime.
func (m *Model) balanced(lambda, mu float64) bool {
	return math.Abs(lambda-mu) <= rateEqualTol*math.Max(lambda, mu)
}

// StateProb returns the steady-state probability p_n of the chain being
// in state n (Eq. 6): negative n are congested drivers (capped at K when
// lambda <= mu), positive n are waiting riders.
func (m *Model) StateProb(n int, lambda, mu float64, K int) float64 {
	p0 := m.P0(lambda, mu, K)
	if p0 == 0 {
		return 0
	}
	switch {
	case n == 0:
		return p0
	case n < 0:
		if lambda <= mu && -n > K {
			return 0
		}
		if mu <= 0 {
			return 0
		}
		return p0 * math.Pow(mu/lambda, float64(-n))
	default:
		prod := 1.0
		for i := 1; i <= n; i++ {
			prod *= lambda / (mu + m.Renege(i, mu))
		}
		return p0 * prod
	}
}

// ExpectedIdleTime returns ET(lambda, mu): the expected time a driver who
// rejoins the region will wait before receiving a new rider, under FCFS
// driver dispatch (Eqs. 10, 13, 16). K is the number of drivers that can
// congest during the scheduling window. A region with no rider arrivals
// returns +Inf.
func (m *Model) ExpectedIdleTime(lambda, mu float64, K int) float64 {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsNaN(mu) {
		return math.Inf(1)
	}
	if mu < 0 {
		mu = 0
	}
	if K < 0 {
		K = 0
	}
	switch {
	case lambda > mu && !m.balanced(lambda, mu):
		// Eq. 10: ET = lambda * p0 / (lambda-mu)^2.
		p0 := m.P0(lambda, mu, K)
		d := lambda - mu
		return lambda * p0 / (d * d)
	case m.balanced(lambda, mu):
		// Eq. 16: ET = p0 (K+1)(K+2) / (2 lambda).
		p0 := m.P0(lambda, mu, K)
		return p0 * float64(K+1) * float64(K+2) / (2 * lambda)
	default:
		// Eq. 13 via the stable joint series: ET = sumET / (lambda * S),
		// where S = 1 + sumGeo + S+ is the (scaled) normalizer. When the
		// accumulators were rescaled, the un-scaled "+1+S+" terms vanish
		// relative to sumGeo, which is exactly the large-K limit.
		theta := mu / lambda
		sumGeo, sumET, logScale := negativeSeriesScaled(theta, K)
		var norm float64
		if logScale > 0 {
			norm = sumGeo + 1 // S+ and the 1 are below rescale resolution
		} else {
			norm = 1 + sumGeo + m.positiveSeries(lambda, mu)
		}
		return sumET / (lambda * norm)
	}
}

// Rates converts the batch-level counts of Algorithm 2 into the arrival
// rates of Eqs. 18-19. waiting is |R_k| (unserved riders in the region),
// avail is |D_k| (available drivers), predictedRiders is |^R_k| and
// predictedDrivers |^D_k| (expected arrivals during the window), and tc
// is the window length in seconds. Rates are per second.
func Rates(waiting, avail, predictedRiders, predictedDrivers int, tc float64) (lambda, mu float64) {
	if tc <= 0 {
		return 0, 0
	}
	if waiting <= avail {
		lambda = float64(predictedRiders) / tc
		mu = float64(predictedDrivers+avail-waiting) / tc
	} else {
		lambda = float64(predictedRiders+waiting-avail) / tc
		mu = float64(predictedDrivers) / tc
	}
	if lambda < 0 {
		lambda = 0
	}
	if mu < 0 {
		mu = 0
	}
	return lambda, mu
}

// IdleRatio returns IR(r, d) = ET / (cost + ET) (Eq. 17), the priority
// score the dispatch algorithms minimize. cost is the rider's travel
// cost in seconds; et the expected idle time at the rider's destination
// region. An infinite ET yields ratio 1 (worst possible priority); a
// non-positive total yields 0.
func IdleRatio(cost, et float64) float64 {
	if math.IsInf(et, 1) {
		return 1
	}
	if et < 0 {
		et = 0
	}
	if cost < 0 {
		cost = 0
	}
	total := cost + et
	if total <= 0 {
		return 0
	}
	return et / total
}

// String renders the model configuration, aiding experiment logs.
func (m *Model) String() string {
	return fmt.Sprintf("queueing.Model{beta=%g, maxStates=%d}", m.cfg.Beta, maxStates)
}
