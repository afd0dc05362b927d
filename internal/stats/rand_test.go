package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoissonZeroAndNegativeLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Poisson(rng, 0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := Poisson(rng, -3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
	if got := Poisson(rng, math.NaN()); got != 0 {
		t.Errorf("Poisson(NaN) = %d, want 0", got)
	}
}

func TestPoissonMeanSmallLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const lambda = 4.5
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += Poisson(rng, lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.05 {
		t.Errorf("sample mean %.4f too far from lambda %.1f", mean, lambda)
	}
}

func TestPoissonMeanLargeLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const lambda = 250.0
	const n = 50000
	sum := 0
	sumSq := 0.0
	for i := 0; i < n; i++ {
		k := Poisson(rng, lambda)
		sum += k
		sumSq += float64(k) * float64(k)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda)/lambda > 0.01 {
		t.Errorf("PTRS sample mean %.2f too far from lambda %.1f", mean, lambda)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-lambda)/lambda > 0.05 {
		t.Errorf("PTRS sample variance %.2f too far from lambda %.1f", variance, lambda)
	}
}

func TestPoissonNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(lam float64) bool {
		lam = math.Mod(math.Abs(lam), 500)
		return Poisson(rng, lam) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rate = 2.5
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Exponential(rng, rate)
	}
	mean := sum / n
	want := 1 / rate
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("exponential mean %.4f, want %.4f", mean, want)
	}
}

func TestExponentialZeroRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if got := Exponential(rng, 0); !math.IsInf(got, 1) {
		t.Errorf("Exponential(rate=0) = %v, want +Inf", got)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Errorf("weight ratio %.3f, want ~3", ratio)
	}
}

func TestCategoricalAllZeroWeightsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	weights := []float64{0, 0, 0, 0}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[Categorical(rng, weights)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("category %d drawn %d times; want near-uniform 10000", i, c)
		}
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		sum := 0.0
		for k := 0; k < int(lambda)+200; k++ {
			sum += PoissonPMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("PMF(lambda=%v) sums to %v", lambda, sum)
		}
	}
}

func TestPoissonPMFEdgeCases(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PMF(0,0) = %v, want 1", got)
	}
	if got := PoissonPMF(0, 3); got != 0 {
		t.Errorf("PMF(0,3) = %v, want 0", got)
	}
	if got := PoissonPMF(5, -1); got != 0 {
		t.Errorf("PMF(5,-1) = %v, want 0", got)
	}
}

func TestPoissonCDFMonotone(t *testing.T) {
	prev := -1.0
	for k := -1; k < 60; k++ {
		c := PoissonCDF(12, k)
		if c < prev {
			t.Fatalf("CDF not monotone at k=%d: %v < %v", k, c, prev)
		}
		prev = c
	}
	if prev < 0.999999 {
		t.Errorf("CDF(12, 59) = %v, want ~1", prev)
	}
}

// knuthReference is Poisson with the textbook Knuth loop below 30:
// e^-lambda computed first, then one uniform per factor.
func knuthReference(rng *rand.Rand, lambda float64) int {
	switch {
	case lambda <= 0 || math.IsNaN(lambda):
		return 0
	case lambda >= 30:
		return poissonPTRS(rng, lambda)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// samePoissonDraws fails unless Poisson and the textbook reference,
// each on its own generator seeded alike, return the same k and leave
// their generators at the same position, draw after draw.
func samePoissonDraws(t *testing.T, seed int64, lambda float64, draws int) {
	t.Helper()
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if g, w := Poisson(got, lambda), knuthReference(want, lambda); g != w {
			t.Fatalf("seed %d lambda %v draw %d: k = %d, textbook Knuth %d", seed, lambda, i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d lambda %v draw %d: next draw %d, textbook Knuth %d (a different number of uniforms consumed)",
				seed, lambda, i, g, w)
		}
	}
}

func TestPoissonKnuthMatchesTextbook(t *testing.T) {
	lambdas := []float64{
		1e-300, 1e-9, 0.01, 0.2,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2),
		29.999,
		0, -3, math.NaN(),
	}
	for _, lambda := range lambdas {
		for seed := int64(1); seed <= 20; seed++ {
			samePoissonDraws(t, seed, lambda, 2000)
		}
	}
}

// FuzzPoissonKnuth checks the sampler draw for draw against the
// textbook loop at any seed and any lambda below PTRS's range.
func FuzzPoissonKnuth(f *testing.F) {
	for _, lambda := range []float64{1e-300, 0.2, 1, 4.5, 29.999, 0, -1, math.NaN()} {
		f.Add(int64(1), lambda)
	}
	f.Fuzz(func(t *testing.T, seed int64, lambda float64) {
		if lambda >= 30 {
			return
		}
		samePoissonDraws(t, seed, lambda, 64)
	})
}
