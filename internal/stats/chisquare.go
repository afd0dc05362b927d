package stats

import (
	"errors"
	"math"
)

// ChiSquareCDF returns the CDF of the chi-square distribution with k
// degrees of freedom evaluated at x, via the regularized lower incomplete
// gamma function P(k/2, x/2).
func ChiSquareCDF(x float64, k int) float64 {
	if x <= 0 || k <= 0 {
		return 0
	}
	return regularizedGammaP(float64(k)/2, x/2)
}

// ChiSquareCritical returns the critical value c such that
// P(X > c) = alpha for X ~ chi-square with k degrees of freedom. It is the
// quantity written chi²_{r-1}(0.05) in Tables 7 and 8 of the paper.
func ChiSquareCritical(k int, alpha float64) float64 {
	if k <= 0 {
		return 0
	}
	target := 1 - alpha
	// Bisection on the CDF: monotone, so this is robust.
	lo, hi := 0.0, 1.0
	for ChiSquareCDF(hi, k) < target {
		hi *= 2
		if hi > 1e9 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ChiSquareCDF(mid, k) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regularizedGammaP computes P(a, x) = γ(a, x)/Γ(a) using the series
// expansion for x < a+1 and the continued fraction otherwise (Numerical
// Recipes style, stdlib-only).
func regularizedGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

func gammaPSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-logGamma(a))
}

func gammaQContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-logGamma(a)) * h
}

// ChiSquareResult records the outcome of a Pearson goodness-of-fit test,
// in the same shape the paper reports in Tables 7 and 8: the number of
// bins r, the statistic k, the critical value chi²_{r-1}(alpha), and
// whether the null hypothesis (samples follow the fitted distribution)
// survives.
type ChiSquareResult struct {
	Bins      int     // r: number of intervals after merging sparse tails
	Statistic float64 // k = Σ (ν_i − n·p_i)² / (n·p_i)
	DF        int     // degrees of freedom, r−1
	Critical  float64 // chi²_{DF}(alpha)
	Alpha     float64
	Lambda    float64 // fitted Poisson mean
	Reject    bool    // true if Statistic > Critical
}

// minExpectedPerBin is the conventional floor on expected bin counts for
// the Pearson test; sparser bins are merged into their neighbours.
const minExpectedPerBin = 5.0

// ChiSquarePoissonTest fits a Poisson distribution to the integer samples
// by maximum likelihood (the sample mean) and runs a Pearson chi-square
// goodness-of-fit test at significance level alpha, exactly the procedure
// of Appendix B. Bins with expected count below 5 are merged into the
// adjacent bin, and the two open tails are folded into the extreme bins.
func ChiSquarePoissonTest(samples []int, alpha float64) (ChiSquareResult, error) {
	if len(samples) < 10 {
		return ChiSquareResult{}, errors.New("stats: chi-square test needs at least 10 samples")
	}
	n := float64(len(samples))
	sum := 0
	maxV := 0
	for _, s := range samples {
		if s < 0 {
			return ChiSquareResult{}, errors.New("stats: negative count sample")
		}
		sum += s
		if s > maxV {
			maxV = s
		}
	}
	lambda := float64(sum) / n
	if lambda == 0 {
		return ChiSquareResult{}, errors.New("stats: all samples are zero")
	}

	// Observed frequencies per value 0..maxV; expected from the fitted
	// Poisson, with the upper tail P(X > maxV) folded into the last bin.
	observed := make([]float64, maxV+1)
	for _, s := range samples {
		observed[s]++
	}
	expected := make([]float64, maxV+1)
	for v := 0; v <= maxV; v++ {
		expected[v] = n * PoissonPMF(lambda, v)
	}
	expected[maxV] += n * (1 - PoissonCDF(lambda, maxV))

	obsBins, expBins := mergeSparseBins(observed, expected)
	r := len(obsBins)
	if r < 3 {
		return ChiSquareResult{}, errors.New("stats: too few bins after merging; need more spread in samples")
	}
	k := 0.0
	for i := range obsBins {
		d := obsBins[i] - expBins[i]
		k += d * d / expBins[i]
	}
	df := r - 1
	crit := ChiSquareCritical(df, alpha)
	return ChiSquareResult{
		Bins:      r,
		Statistic: k,
		DF:        df,
		Critical:  crit,
		Alpha:     alpha,
		Lambda:    lambda,
		Reject:    k > crit,
	}, nil
}

// mergeSparseBins greedily merges adjacent bins until every expected count
// reaches minExpectedPerBin, sweeping from both ends toward the middle
// (tails are where Poisson mass thins out).
func mergeSparseBins(observed, expected []float64) (obs, exp []float64) {
	obs = append([]float64(nil), observed...)
	exp = append([]float64(nil), expected...)
	// Merge from the left.
	for len(exp) > 1 && exp[0] < minExpectedPerBin {
		exp[1] += exp[0]
		obs[1] += obs[0]
		exp = exp[1:]
		obs = obs[1:]
	}
	// Merge from the right.
	for len(exp) > 1 && exp[len(exp)-1] < minExpectedPerBin {
		exp[len(exp)-2] += exp[len(exp)-1]
		obs[len(obs)-2] += obs[len(obs)-1]
		exp = exp[:len(exp)-1]
		obs = obs[:len(obs)-1]
	}
	// Interior sparse bins (rare): merge into the smaller neighbour.
	for {
		idx := -1
		for i := 1; i < len(exp)-1; i++ {
			if exp[i] < minExpectedPerBin {
				idx = i
				break
			}
		}
		if idx == -1 || len(exp) <= 2 {
			break
		}
		into := idx - 1
		if exp[idx+1] < exp[idx-1] {
			into = idx + 1
		}
		exp[into] += exp[idx]
		obs[into] += obs[idx]
		exp = append(exp[:idx], exp[idx+1:]...)
		obs = append(obs[:idx], obs[idx+1:]...)
	}
	return obs, exp
}

// HistogramBin is one row of an observed-vs-expected frequency plot, the
// underlying data of Figures 11 and 12.
type HistogramBin struct {
	Lo, Hi   int // value range [Lo, Hi)
	Observed int
	Expected float64
}

// PoissonHistogram buckets integer samples into fixed-width value ranges
// and pairs each bucket with the expected count under the max-likelihood
// Poisson fit. width <= 0 defaults to 10 (the paper plots 10-wide ranges).
func PoissonHistogram(samples []int, width int) []HistogramBin {
	if len(samples) == 0 {
		return nil
	}
	if width <= 0 {
		width = 10
	}
	sum, minV, maxV := 0, samples[0], samples[0]
	for _, s := range samples {
		sum += s
		if s < minV {
			minV = s
		}
		if s > maxV {
			maxV = s
		}
	}
	lambda := float64(sum) / float64(len(samples))
	lo := (minV / width) * width
	hi := (maxV/width + 1) * width
	var bins []HistogramBin
	for b := lo; b < hi; b += width {
		obs := 0
		for _, s := range samples {
			if s >= b && s < b+width {
				obs++
			}
		}
		expP := PoissonCDF(lambda, b+width-1) - PoissonCDF(lambda, b-1)
		bins = append(bins, HistogramBin{
			Lo: b, Hi: b + width,
			Observed: obs,
			Expected: expP * float64(len(samples)),
		})
	}
	return bins
}
