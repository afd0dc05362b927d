package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.9g, want %.9g (±%g)", what, got, want, tol)
	}
}

// TestEstimatorWelfordFixture checks the streaming moments against the
// textbook sample {2,4,4,4,5,5,7,9}: mean 5, sample variance 32/7.
func TestEstimatorWelfordFixture(t *testing.T) {
	var e Estimator
	e.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	approx(t, e.Mean(), 5, 1e-12, "mean")
	approx(t, e.Var(), 32.0/7.0, 1e-12, "var")
	approx(t, e.Std(), math.Sqrt(32.0/7.0), 1e-12, "std")
	if e.Count() != 8 || e.Min() != 2 || e.Max() != 9 {
		t.Errorf("count/min/max = %d/%.0f/%.0f, want 8/2/9", e.Count(), e.Min(), e.Max())
	}
}

// TestTCriticalTableValues pins the inverse-CDF against printed
// t-table entries.
func TestTCriticalTableValues(t *testing.T) {
	cases := []struct {
		df   int
		conf float64
		want float64
	}{
		{1, 0.95, 12.7062},
		{4, 0.95, 2.776445},
		{9, 0.95, 2.262157},
		{9, 0.99, 3.249836},
		{30, 0.95, 2.042272},
		{100, 0.95, 1.983972},
	}
	for _, c := range cases {
		approx(t, TCritical(c.df, c.conf), c.want, 1e-4, "t*")
	}
	if !math.IsNaN(TCritical(0, 0.95)) || !math.IsNaN(TCritical(5, 1.0)) {
		t.Error("invalid df/confidence should yield NaN")
	}
}

// TestMeanCIFixture: the Welford fixture's 95% interval is
// t_{7,0.975} * s / sqrt(8) = 2.364624 * 2.138090 / 2.828427.
func TestMeanCIFixture(t *testing.T) {
	var e Estimator
	e.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	iv := e.MeanCI(0.95)
	approx(t, iv.Mean, 5, 1e-12, "ci mean")
	approx(t, iv.Half, 2.364624*math.Sqrt(32.0/7.0)/math.Sqrt(8), 1e-4, "ci half")
	if iv.N != 8 || iv.Confidence != 0.95 {
		t.Errorf("interval metadata %+v", iv)
	}
}

// TestMeanCIDegenerate: n=0, n=1, and zero-variance samples all
// degenerate to a zero-width interval rather than NaN or Inf.
func TestMeanCIDegenerate(t *testing.T) {
	var empty Estimator
	if iv := empty.MeanCI(0.95); iv.Mean != 0 || iv.Half != 0 || iv.N != 0 {
		t.Errorf("empty interval %+v", iv)
	}
	var one Estimator
	one.Add(3.5)
	if iv := one.MeanCI(0.95); iv.Mean != 3.5 || iv.Half != 0 || iv.N != 1 {
		t.Errorf("n=1 interval %+v", iv)
	}
	var flat Estimator
	flat.AddAll([]float64{2, 2, 2, 2})
	if iv := flat.MeanCI(0.95); iv.Mean != 2 || iv.Half != 0 {
		t.Errorf("zero-variance interval %+v", iv)
	}
}

// TestCIWidthShrinksAsRootN: with the variance held exactly constant
// (a repeated two-point pattern), quadrupling n should halve the CI
// width up to the t-critical drift — the ratio lands near
// 2 * t_{49}/t_{199} ≈ 2.038.
func TestCIWidthShrinksAsRootN(t *testing.T) {
	pattern := func(n int) *Estimator {
		var e Estimator
		for i := 0; i < n; i++ {
			e.Add(float64(i % 2)) // {0,1,0,1,...}: sample var n/(2(n-1))... constant-ish
		}
		return &e
	}
	small := pattern(50).MeanCI(0.95)
	large := pattern(200).MeanCI(0.95)
	ratio := small.Half / large.Half
	if ratio < 1.9 || ratio > 2.2 {
		t.Errorf("CI width ratio n=50 vs n=200 = %.4f, want ~2 (1/sqrt(n) scaling)", ratio)
	}
}

// TestQuantileNearestRank pins the nearest-rank convention on a known
// 10-sample set: p95 must be the 10th smallest (ceil(0.95*10) = 10),
// not the 9th.
func TestQuantileNearestRank(t *testing.T) {
	var e Estimator
	for i := 10; i >= 1; i-- { // insertion order must not matter
		e.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {0.0, 1}, {1.0, 10},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%.2f) = %g, want %g", c.p, got, c.want)
		}
	}
	var empty Estimator
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	var one Estimator
	one.Add(7)
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if one.Quantile(p) != 7 {
			t.Errorf("single sample is every quantile; Quantile(%g) = %g", p, one.Quantile(p))
		}
	}
}

// TestSignTestKnownSequences checks the exact binomial tail on
// hand-computed win/loss records.
func TestSignTestKnownSequences(t *testing.T) {
	cases := []struct {
		wins, losses int
		want         float64
	}{
		// 9 wins, 1 loss: 2 * (C(10,0)+C(10,1))/2^10 = 22/1024.
		{9, 1, 22.0 / 1024.0},
		// 10 wins, 0 losses: 2 * 1/1024.
		{10, 0, 2.0 / 1024.0},
		// 5/5 split: capped at 1.
		{5, 5, 1},
		// 1 win, 0 losses: 2 * 1/2 = 1.
		{1, 0, 1},
		// Symmetric.
		{1, 9, 22.0 / 1024.0},
	}
	for _, c := range cases {
		approx(t, SignTest(c.wins, c.losses), c.want, 1e-12, "sign p")
	}
	if SignTest(0, 0) != 1 {
		t.Error("empty record should have p = 1")
	}
}

// TestPairedCompareFixture: a beats b on 3 of 4 paired instances with
// a hand-computable mean difference.
func TestPairedCompareFixture(t *testing.T) {
	a := []float64{5, 7, 6, 4}
	b := []float64{4, 5, 6.5, 3}
	p, err := PairedCompare(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p.Wins != 3 || p.Losses != 1 || p.Ties != 0 {
		t.Errorf("record = %d/%d/%d, want 3/1/0", p.Wins, p.Losses, p.Ties)
	}
	// Differences {1, 2, -0.5, 1}: mean 0.875.
	approx(t, p.Diff.Mean, 0.875, 1e-12, "paired mean diff")
	if p.Diff.Half <= 0 {
		t.Error("paired CI should be positive width")
	}
	// 3/1: 2*(C(4,0)+C(4,1))/16 = 10/16.
	approx(t, p.SignP, 10.0/16.0, 1e-12, "paired sign p")

	// Ties are recorded and excluded from the sign test.
	pt, err := PairedCompare([]float64{1, 2, 2}, []float64{0, 2, 2}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Wins != 1 || pt.Ties != 2 || pt.SignP != 1 {
		t.Errorf("tie handling: %+v", pt)
	}

	if _, err := PairedCompare([]float64{1}, []float64{1, 2}, 0.95); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PairedCompare(nil, nil, 0.95); err == nil {
		t.Error("empty input should error")
	}
}
