package predict

import (
	"errors"
	"fmt"

	"mrvd/internal/stats"
)

// EvalResult is one row of Table 6: a model's accuracy on the held-out
// evaluation days.
type EvalResult struct {
	Model        string
	RelativeRMSE float64 // percent, the paper's "RMSE (%)"
	RealRMSE     float64 // absolute counts, the paper's "Real RMSE"
	MAE          float64
	Cells        int // evaluated (day, slot, region) cells
}

// Evaluate scores a trained predictor on history days [fromDay, toDay),
// comparing cell-by-cell predictions against realized counts.
func Evaluate(m Predictor, h *History, fromDay, toDay int) (EvalResult, error) {
	if fromDay < MinLookbackDays {
		return EvalResult{}, fmt.Errorf("predict: evaluation from day %d lacks lookback (need >= %d)",
			fromDay, MinLookbackDays)
	}
	if toDay > h.Days() {
		toDay = h.Days()
	}
	var pred, truth []float64
	for day := fromDay; day < toDay; day++ {
		for slot := 0; slot < h.SlotsPerDay; slot++ {
			for region := 0; region < h.NumRegions; region++ {
				pred = append(pred, m.Predict(h, day, slot, region))
				truth = append(truth, h.At(day, slot, region))
			}
		}
	}
	if len(pred) == 0 {
		return EvalResult{}, errors.New("predict: empty evaluation window")
	}
	rel, err := stats.RelativeRMSE(pred, truth)
	if err != nil {
		return EvalResult{}, err
	}
	rmse, err := stats.RMSE(pred, truth)
	if err != nil {
		return EvalResult{}, err
	}
	mae, err := stats.MAE(pred, truth)
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{
		Model:        m.Name(),
		RelativeRMSE: rel,
		RealRMSE:     rmse,
		MAE:          mae,
		Cells:        len(pred),
	}, nil
}

// All returns freshly constructed instances of every predictor in the
// paper's comparison, in Table 6's reporting order.
func All(seed int64) []Predictor {
	return []Predictor{
		&STNet{},
		HA{},
		&LR{},
		&GBRT{Seed: seed},
	}
}
