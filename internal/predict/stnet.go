package predict

import (
	"errors"
	"math"
)

// STNet is the repo's DeepST substitute: it uses
// DeepST's feature design — closeness, period and trend lag stacks fused
// with day-of-week, slot-of-day and weather metadata — in a globally
// fitted ridge model, then corrects each region with its training-set
// residual mean (the role DeepST's convolutional spatial component
// plays). It has no neural network, but it consumes exactly the extra
// signal DeepST adds over the LR/GBRT baselines, preserving the paper's
// accuracy ordering.
type STNet struct {
	// Lambda is the ridge penalty. Default 1.0.
	Lambda float64

	w          []float64
	regionBias []float64
}

// Name implements Predictor. The experiment tables label this model
// "STNet(DeepST)" to flag the substitution.
func (m *STNet) Name() string { return "STNet(DeepST)" }

// stnetNumFeatures: intercept + closeness + period + trend + dow onehot
// (7) + weather onehot (3) + slot harmonics (4).
const stnetNumFeatures = 1 + NumCloseness + NumPeriod + NumTrend + 7 + 3 + 4

func stnetFeatures(dst []float64, h *History, day, slot, region int) []float64 {
	dst = dst[:0]
	dst = append(dst, 1)
	for i := 1; i <= NumCloseness; i++ {
		dst = append(dst, h.At(day, slot-i, region))
	}
	for i := 1; i <= NumPeriod; i++ {
		dst = append(dst, h.At(day-i, slot, region))
	}
	for i := 1; i <= NumTrend; i++ {
		dst = append(dst, h.At(day-7*i, slot, region))
	}
	var dow, weather int
	if day >= 0 && day < len(h.Meta) {
		dow = h.Meta[day].DOW
		weather = int(h.Meta[day].Weather)
	}
	for d := 0; d < 7; d++ {
		if d == dow {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	for w := 0; w < 3; w++ {
		if w == weather {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	// Two harmonics of the slot-of-day cycle capture the diurnal shape.
	frac := float64(slot) / float64(h.SlotsPerDay)
	dst = append(dst, sinCos(frac)...)
	dst = append(dst, sinCos(2*frac)...)
	return dst
}

func sinCos(frac float64) []float64 {
	return []float64{math.Sin(2 * math.Pi * frac), math.Cos(2 * math.Pi * frac)}
}

// Train implements Predictor: a global ridge fit, then per-region bias.
func (m *STNet) Train(h *History, trainDays int) error {
	if m.Lambda <= 0 {
		m.Lambda = 1.0
	}
	var X [][]float64
	var y []float64
	type cell struct{ day, slot, region int }
	var cells []cell
	for day := MinLookbackDays; day < trainDays && day < h.Days(); day++ {
		for slot := 0; slot < h.SlotsPerDay; slot++ {
			for region := 0; region < h.NumRegions; region++ {
				X = append(X, stnetFeatures(nil, h, day, slot, region))
				y = append(y, h.At(day, slot, region))
				cells = append(cells, cell{day, slot, region})
			}
		}
	}
	if len(X) == 0 {
		return errors.New("predict: STNet has no training rows; need more history days")
	}
	w, err := ridgeSolve(X, y, m.Lambda)
	if err != nil {
		return err
	}
	m.w = w

	// Spatial correction: per-region mean residual on the training set.
	m.regionBias = make([]float64, h.NumRegions)
	counts := make([]float64, h.NumRegions)
	for i, c := range cells {
		resid := y[i] - dot(w, X[i])
		m.regionBias[c.region] += resid
		counts[c.region]++
	}
	for r := range m.regionBias {
		if counts[r] > 0 {
			m.regionBias[r] /= counts[r]
		}
	}
	return nil
}

// Predict implements Predictor. An untrained model predicts 0.
func (m *STNet) Predict(h *History, day, slot, region int) float64 {
	if m.w == nil {
		return 0
	}
	f := stnetFeatures(make([]float64, 0, stnetNumFeatures), h, day, slot, region)
	v := dot(m.w, f)
	if region < len(m.regionBias) {
		v += m.regionBias[region]
	}
	if v < 0 {
		return 0
	}
	return v
}
