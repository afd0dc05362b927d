package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, 2, 3}, []float64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("MAE = %v, want 1", got)
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(12.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
}

func TestRelativeRMSEPerfect(t *testing.T) {
	got, err := RelativeRMSE([]float64{5, 5}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("RelativeRMSE of perfect prediction = %v, want 0", got)
	}
}

func TestMetricErrors(t *testing.T) {
	if _, err := MAE([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := RelativeRMSE([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Error("want error for zero truth norm")
	}
}

func TestMAEAlwaysNonNegative(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		m, err := MAE(a[:n], b[:n])
		return err == nil && (m >= 0 || math.IsNaN(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRMSEAtLeastMAE(t *testing.T) {
	// RMSE >= MAE by the power-mean inequality.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		mae, _ := MAE(a, b)
		rmse, _ := RMSE(a, b)
		if rmse < mae-1e-9 {
			t.Fatalf("RMSE %v < MAE %v", rmse, mae)
		}
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d, want 8", s.Count())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	wantVar := 32.0 / 7.0
	if math.Abs(s.Var()-wantVar) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var(), wantVar)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 || s.Count() != 0 {
		t.Error("empty summary should be all zeros")
	}
}
