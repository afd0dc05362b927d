package predict

import "mrvd/internal/workload"

// Lag-stack sizes shared by the models. Closeness follows the paper's
// baselines ("the previous 15 time slots"); period and trend follow
// DeepST's three time scales.
const (
	NumCloseness = 15 // consecutive previous slots
	NumPeriod    = 3  // same slot, previous days
	NumTrend     = 3  // same slot, previous weeks
)

// MinLookbackDays is how many full days of history a model needs before
// it can form every feature.
const MinLookbackDays = NumTrend * 7

// History holds per-day, per-slot, per-region order counts plus day
// metadata. Counts[day][slot][region] may be ragged in days only; every
// day must have SlotsPerDay slots of NumRegions regions.
type History struct {
	Counts      [][][]int
	Meta        []workload.DayMeta
	SlotsPerDay int
	NumRegions  int
}

// Days returns the number of recorded days.
func (h *History) Days() int { return len(h.Counts) }

// At returns the count at an absolute (day, slot, region), or 0 when the
// index walks off the front of the history.
func (h *History) At(day, slot, region int) float64 {
	// Normalize slot underflow across day boundaries.
	for slot < 0 {
		day--
		slot += h.SlotsPerDay
	}
	if day < 0 || day >= len(h.Counts) || slot >= h.SlotsPerDay {
		return 0
	}
	return float64(h.Counts[day][slot][region])
}

// AppendDay grows the history by one day of counts and metadata; the
// simulator uses it to roll realized counts into the lag window.
func (h *History) AppendDay(counts [][]int, meta workload.DayMeta) {
	h.Counts = append(h.Counts, counts)
	h.Meta = append(h.Meta, meta)
}

// GenerateHistory samples a count history of the given number of days
// from a synthetic city at the given slot width. Days are indexed from 0.
func GenerateHistory(city *workload.City, days int, slotSeconds float64, seed int64) *History {
	h := &History{
		SlotsPerDay: int(workload.DaySeconds / slotSeconds),
		NumRegions:  city.Grid().NumRegions(),
	}
	rng := newSeededRand(seed)
	for d := 0; d < days; d++ {
		h.AppendDay(city.GenerateDayCounts(d, slotSeconds, rng), city.DayMeta(d))
	}
	return h
}

// Predictor forecasts the order count of one (day, slot, region) cell
// using only information strictly before that slot.
type Predictor interface {
	// Name identifies the model in experiment tables.
	Name() string
	// Train fits the model on history days [0, trainDays).
	Train(h *History, trainDays int) error
	// Predict forecasts Counts[day][slot][region]. It must only read
	// cells strictly earlier than (day, slot).
	Predict(h *History, day, slot, region int) float64
}
