package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841, 1, 0.95},
		{5.991, 2, 0.95},
		{9.488, 4, 0.95},
		{11.070, 5, 0.95},
		{12.592, 6, 0.95},
		{18.307, 10, 0.95},
	}
	for _, c := range cases {
		got := ChiSquareCDF(c.x, c.k)
		if math.Abs(got-c.want) > 0.001 {
			t.Errorf("ChiSquareCDF(%.3f, %d) = %.5f, want %.3f", c.x, c.k, got, c.want)
		}
	}
}

func TestChiSquareCriticalMatchesPaperTable(t *testing.T) {
	// The paper's Tables 7-8 quote these 5% critical values.
	cases := []struct {
		df   int
		want float64
	}{
		{4, 9.488},
		{5, 11.070},
		{6, 12.592},
	}
	for _, c := range cases {
		got := ChiSquareCritical(c.df, 0.05)
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("ChiSquareCritical(%d, 0.05) = %.4f, want %.3f", c.df, got, c.want)
		}
	}
}

func TestChiSquareCDFEdges(t *testing.T) {
	if got := ChiSquareCDF(-1, 3); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	if got := ChiSquareCDF(5, 0); got != 0 {
		t.Errorf("CDF with df=0 = %v, want 0", got)
	}
	if got := ChiSquareCDF(1e6, 3); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(huge) = %v, want 1", got)
	}
}

func TestChiSquarePoissonTestAcceptsPoissonData(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rejections := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		samples := make([]int, 210) // paper: 210 per-minute samples
		for i := range samples {
			samples[i] = Poisson(rng, 70)
		}
		res, err := ChiSquarePoissonTest(samples, 0.05)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Reject {
			rejections++
		}
	}
	// At alpha=0.05 we expect ~5% false rejections; 20% is a generous cap.
	if rejections > trials/5 {
		t.Errorf("rejected true Poisson data in %d/%d trials", rejections, trials)
	}
}

func TestChiSquarePoissonTestRejectsUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rejected := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		samples := make([]int, 300)
		for i := range samples {
			// Uniform on [0, 200): variance far exceeds the mean, so a
			// Poisson fit should be firmly rejected.
			samples[i] = rng.Intn(200)
		}
		res, err := ChiSquarePoissonTest(samples, 0.05)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Reject {
			rejected++
		}
	}
	if rejected < trials-2 {
		t.Errorf("only rejected uniform data in %d/%d trials", rejected, trials)
	}
}

func TestChiSquarePoissonTestErrors(t *testing.T) {
	if _, err := ChiSquarePoissonTest([]int{1, 2}, 0.05); err == nil {
		t.Error("want error for too few samples")
	}
	if _, err := ChiSquarePoissonTest(make([]int, 50), 0.05); err == nil {
		t.Error("want error for all-zero samples")
	}
	neg := make([]int, 50)
	neg[3] = -1
	if _, err := ChiSquarePoissonTest(neg, 0.05); err == nil {
		t.Error("want error for negative sample")
	}
}

func TestMergeSparseBinsFloor(t *testing.T) {
	obs := []float64{1, 2, 30, 40, 2, 1}
	exp := []float64{0.5, 2, 28, 41, 3, 0.7}
	mo, me := mergeSparseBins(obs, exp)
	if len(mo) != len(me) {
		t.Fatalf("length mismatch %d vs %d", len(mo), len(me))
	}
	for i, e := range me {
		if e < minExpectedPerBin && len(me) > 2 {
			t.Errorf("bin %d expected %v below floor", i, e)
		}
	}
	// Totals must be conserved by merging.
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(mo)-sum(obs)) > 1e-9 || math.Abs(sum(me)-sum(exp)) > 1e-9 {
		t.Error("merging changed totals")
	}
}

func TestPoissonHistogramTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	samples := make([]int, 210)
	for i := range samples {
		samples[i] = Poisson(rng, 65)
	}
	bins := PoissonHistogram(samples, 10)
	totalObs := 0
	for _, b := range bins {
		totalObs += b.Observed
		if b.Hi-b.Lo != 10 {
			t.Errorf("bin width %d, want 10", b.Hi-b.Lo)
		}
	}
	if totalObs != len(samples) {
		t.Errorf("observed total %d, want %d", totalObs, len(samples))
	}
}

func TestPoissonHistogramEmpty(t *testing.T) {
	if bins := PoissonHistogram(nil, 10); bins != nil {
		t.Errorf("want nil for empty input, got %v", bins)
	}
}
