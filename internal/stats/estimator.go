package stats

import (
	"errors"
	"math"
	"sort"
)

// Interval is a two-sided confidence interval around a sample mean:
// [Mean-Half, Mean+Half] covers the population mean with probability
// Confidence under the usual Student-t assumptions. Half is 0 when the
// sample is too small to estimate dispersion (n < 2) or has zero
// variance.
type Interval struct {
	Mean       float64 `json:"mean"`
	Half       float64 `json:"half"`
	N          int     `json:"n"`
	Confidence float64 `json:"confidence"`
}

// Estimator aggregates trial observations for experiment cells: it
// keeps Summary's streaming Welford moments and additionally retains
// the samples, so it can report nearest-rank quantiles and Student-t
// confidence intervals. Experiment cells hold tens of seeds, not the
// millions of observations Summary was built for, so retention is cheap.
type Estimator struct {
	Summary
	samples []float64
}

// Add folds one observation into the estimator.
func (e *Estimator) Add(x float64) {
	e.Summary.Add(x)
	e.samples = append(e.samples, x)
}

// AddAll folds a slice of observations.
func (e *Estimator) AddAll(xs []float64) {
	for _, x := range xs {
		e.Add(x)
	}
}

// NearestRank returns the nearest-rank p-quantile of an ascending
// slice: its ceil(p*n)-th smallest element, clamped to the first and
// last (the zero value when empty). Every nearest-rank quantile in the
// repository — Estimator's trial cells, load.Histogram's latencies —
// is this index; an interpolated or floored one would bias tail
// quantiles low at small n.
func NearestRank[E any](sorted []E, p float64) E {
	n := len(sorted)
	if n == 0 {
		var zero E
		return zero
	}
	return sorted[min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)]
}

// Quantile returns the nearest-rank p-quantile of the samples (0 when
// empty); see NearestRank.
func (e *Estimator) Quantile(p float64) float64 {
	sorted := append([]float64(nil), e.samples...)
	sort.Float64s(sorted)
	return NearestRank(sorted, p)
}

// MeanCI returns the two-sided Student-t confidence interval for the
// population mean at the given confidence level (e.g. 0.95). With
// fewer than two samples, or zero sample variance, Half is 0: the
// interval degenerates to the point estimate.
func (e *Estimator) MeanCI(confidence float64) Interval {
	iv := Interval{Mean: e.Mean(), N: e.Count(), Confidence: confidence}
	if e.Count() < 2 {
		return iv
	}
	iv.Half = TCritical(e.Count()-1, confidence) * e.Std() / math.Sqrt(float64(e.Count()))
	return iv
}

// TCritical returns the two-sided Student-t critical value t* with the
// given degrees of freedom: P(-t* <= T_df <= t*) = confidence. It
// inverts the exact t CDF (via the regularized incomplete beta
// function) by bisection, so no lookup-table truncation: TCritical(9,
// 0.95) = 2.26216... as in printed tables.
func TCritical(df int, confidence float64) float64 {
	if df < 1 || confidence <= 0 || confidence >= 1 {
		return math.NaN()
	}
	p := 1 - (1-confidence)/2 // one-sided upper quantile
	lo, hi := 0.0, 1.0
	for tCDF(hi, df) < p {
		hi *= 2
		if hi > 1e9 { // confidence astronomically close to 1
			break
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF returns P(T_df <= t) for t >= 0.
func tCDF(t float64, df int) float64 {
	if t <= 0 {
		return 0.5
	}
	v := float64(df)
	return 1 - 0.5*regIncBeta(v/2, 0.5, v/(v+t*t))
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// computed with the standard Lentz continued fraction (Numerical
// Recipes 6.4), using the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to stay
// in the fraction's fast-converging region.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const tiny = 1e-30
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 200; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// Paired is a seed-for-seed comparison of two treatments run on the
// same problem instances: the paired mean difference a-b with its
// Student-t interval, the per-instance win/loss/tie record, and the
// exact two-sided sign-test p-value. "A beats B on 9/10 seeds, paired
// mean diff +0.031 ± 0.012, sign p = 0.021" is this struct rendered.
type Paired struct {
	Diff   Interval `json:"diff"`
	Wins   int      `json:"wins"`
	Losses int      `json:"losses"`
	Ties   int      `json:"ties"`
	SignP  float64  `json:"sign_p"`
}

// PairedCompare compares seed-aligned sample vectors a and b: a[i] and
// b[i] must come from the same problem instance. Wins counts instances
// where a > b.
func PairedCompare(a, b []float64, confidence float64) (Paired, error) {
	if len(a) != len(b) {
		return Paired{}, ErrLengthMismatch
	}
	if len(a) == 0 {
		return Paired{}, errors.New("stats: empty paired input")
	}
	var e Estimator
	p := Paired{}
	for i := range a {
		d := a[i] - b[i]
		e.Add(d)
		switch {
		case d > 0:
			p.Wins++
		case d < 0:
			p.Losses++
		default:
			p.Ties++
		}
	}
	p.Diff = e.MeanCI(confidence)
	p.SignP = SignTest(p.Wins, p.Losses)
	return p, nil
}

// SignTest returns the exact two-sided sign-test p-value for a
// win/loss record: the probability, under the null hypothesis that
// wins and losses are equally likely, of a split at least this
// lopsided. Ties are excluded before calling (the standard treatment).
// An empty record returns 1.
func SignTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := wins
	if losses < k {
		k = losses
	}
	// Two-sided: double the lower tail P(X <= k), X ~ Binomial(n, 1/2).
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += math.Exp(lchoose(n, i) - float64(n)*math.Ln2)
	}
	p := 2 * tail
	if p > 1 {
		p = 1
	}
	return p
}

// lchoose returns log C(n, k).
func lchoose(n, k int) float64 {
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}
