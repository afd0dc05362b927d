package stats

import (
	"math"
	"math/rand"
)

// Poisson draws a sample from a Poisson distribution with mean lambda.
// For small lambda it uses Knuth's product-of-uniforms method; for large
// lambda (>= 30) it switches to the PTRS transformed-rejection sampler of
// Hörmann (1993), which stays O(1) as lambda grows. lambda <= 0 returns 0.
// Callers drawing many samples at one mean prepare it once with
// NewPoissonRate.
func Poisson(rng *rand.Rand, lambda float64) int {
	r := NewPoissonRate(lambda)
	return r.Draw(rng)
}

// PoissonRate is a Poisson mean prepared for many draws: Knuth's
// e^-lambda is computed once. Draw consumes the same uniforms and
// returns the same k as Poisson(rng, lambda).
type PoissonRate struct {
	lambda float64
	expNeg float64 // e^-lambda, when 0 < lambda < 30
}

// NewPoissonRate prepares lambda for Draw.
func NewPoissonRate(lambda float64) PoissonRate {
	r := PoissonRate{lambda: lambda}
	if lambda > 0 && lambda < 30 {
		r.expNeg = math.Exp(-lambda)
	}
	return r
}

// Draw samples the prepared distribution.
func (r *PoissonRate) Draw(rng *rand.Rand) int {
	switch {
	case !(r.lambda > 0): // NaN too
		return 0
	case r.lambda < 30:
		// Knuth: multiply uniforms until the product falls to e^-lambda
		// or below; k is the number of factors less one.
		p, k := rng.Float64(), 0
		for p > r.expNeg {
			p *= rng.Float64()
			k++
		}
		return k
	default:
		return poissonPTRS(rng, r.lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm. It is exact (not an
// approximation) and requires only a handful of uniforms per sample.
func poissonPTRS(rng *rand.Rand, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v)+math.Log(invAlpha)-math.Log(a/(us*us)+b) <=
			k*logLam-lambda-logGamma(k+1) {
			return int(k)
		}
	}
}

func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Exponential draws an exponentially distributed inter-arrival time with
// the given rate (events per unit time). rate <= 0 returns +Inf, meaning
// "never": callers use it for empty regions.
func Exponential(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / rate
}

// Categorical samples an index from the given non-negative weights.
// A zero total weight yields a uniform draw.
func Categorical(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// PoissonPMF returns P(X = k) for X ~ Poisson(lambda), computed in log
// space so large lambda/k do not overflow.
func PoissonPMF(lambda float64, k int) float64 {
	if lambda <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if k < 0 {
		return 0
	}
	return math.Exp(float64(k)*math.Log(lambda) - lambda - logGamma(float64(k)+1))
}

// PoissonCDF returns P(X <= k) for X ~ Poisson(lambda).
func PoissonCDF(lambda float64, k int) float64 {
	if k < 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += PoissonPMF(lambda, i)
	}
	if sum > 1 {
		return 1
	}
	return sum
}
