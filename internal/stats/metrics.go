package stats

import (
	"errors"
	"math"
)

// ErrLengthMismatch is returned when paired metric inputs differ in length.
var ErrLengthMismatch = errors.New("stats: prediction and truth lengths differ")

// MAE returns the mean absolute error between predictions and truth,
// the first error column of Table 3.
func MAE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, errors.New("stats: empty input")
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - truth[i])
	}
	return sum / float64(len(pred)), nil
}

// RMSE returns the root mean square error, the paper's "real RMSE" column.
func RMSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, errors.New("stats: empty input")
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}

// RelativeRMSE returns RMSE normalized by the root mean square of the
// truth, expressed as a percentage — the paper's "RMSE (%)" column in
// Tables 3 and 6. A zero-valued truth vector yields an error.
func RelativeRMSE(pred, truth []float64) (float64, error) {
	rmse, err := RMSE(pred, truth)
	if err != nil {
		return 0, err
	}
	ms := 0.0
	for _, t := range truth {
		ms += t * t
	}
	ms = math.Sqrt(ms / float64(len(truth)))
	if ms == 0 {
		return 0, errors.New("stats: zero truth norm")
	}
	return 100 * rmse / ms, nil
}

// Summary accumulates streaming moments and extrema without retaining the
// samples (Welford's algorithm), used for per-driver idle ledgers where a
// day can produce millions of observations.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}
